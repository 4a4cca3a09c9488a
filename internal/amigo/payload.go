package amigo

// The payload codec: the one owner of the bytes the five task kinds
// upload. The endpoint encodes with AppendBinary and fleet.Ingest decodes
// with UnmarshalBinary. A payload is its kind's fields() written in
// order with no keys or tags — Result.Kind names the schema: a string is
// a uvarint length and its bytes, an int a zigzag varint, a bool one byte
// 0 or 1, a float64 the 8 little-endian bytes of math.Float64bits, and
// video shares a uvarint count+1 (0 for nil) followed by their keys,
// strictly increasing, each with its share. An mtr payload is its target,
// a uvarint hop count and per hop its TTL, a responded byte and, for a
// responding hop, its address as 4 big-endian bytes and its best RTT.
// Decoding is strict — non-minimal varints, a bool byte above 1,
// non-finite floats, unsorted or repeated keys, a short field and
// trailing bytes are refused — so a decoded payload re-encodes to the
// bytes it came from, and there is no fallback (DESIGN.md "Payload
// codec").

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"roamsim/internal/ipaddr"
	"roamsim/internal/netsim"
)

// fields lists pointers to the values a payload is written from and read
// into — *string, *int, *bool, *float64 or *map[string]float64 — in
// struct order, which is the order they are written in, then nils.

func (p *SpeedtestPayload) fields() [7]any {
	return [7]any{&p.Server, &p.LatencyMs, &p.DownMbps, &p.UpMbps, &p.CQI, &p.RAT, &p.PublicIP}
}

func (p *CDNPayload) fields() [7]any {
	return [7]any{&p.Provider, &p.Cache, &p.DNSMs, &p.TotalMs, &p.Bytes}
}

func (p *DNSPayload) fields() [7]any {
	return [7]any{&p.Resolver, &p.City, &p.Country, &p.DurationMs, &p.DoH}
}

func (p *VideoPayload) fields() [7]any {
	return [7]any{&p.Dominant, &p.Rebuffers, &p.Shares}
}

// AppendBinary appends p's record to b, or fails as appendFloat does.
func (p SpeedtestPayload) AppendBinary(b []byte) ([]byte, error) { return appendFields(b, p.fields()) }

// AppendBinary appends p's record to b, or fails as appendFloat does.
func (p CDNPayload) AppendBinary(b []byte) ([]byte, error) { return appendFields(b, p.fields()) }

// AppendBinary appends p's record to b, or fails as appendFloat does.
func (p DNSPayload) AppendBinary(b []byte) ([]byte, error) { return appendFields(b, p.fields()) }

// AppendBinary appends p's record to b, or fails as appendFloat does.
func (p VideoPayload) AppendBinary(b []byte) ([]byte, error) { return appendFields(b, p.fields()) }

// AppendBinary appends the trace's record to b straight from the typed
// hops, or fails as appendFloat does.
func (t MTRTrace) AppendBinary(b []byte) ([]byte, error) {
	var err error
	b = binary.AppendUvarint(appendText(b, t.Target), uint64(len(t.Hops)))
	for _, h := range t.Hops {
		b = append(binary.AppendVarint(b, int64(h.TTL)), flagByte(h.Responded))
		if h.Responded {
			b = appendFloat(binary.BigEndian.AppendUint32(b, uint32(h.Addr)), h.BestRTTms, &err)
		}
	}
	return b, err
}

// appendFields appends fields in order, or fails with the error of the
// first non-finite float among them.
func appendFields(b []byte, fields [7]any) ([]byte, error) {
	var err error
	for _, f := range fields {
		switch v := f.(type) {
		case *string:
			b = appendText(b, *v)
		case *int:
			b = binary.AppendVarint(b, int64(*v))
		case *bool:
			b = append(b, flagByte(*v))
		case *float64:
			b = appendFloat(b, *v, &err)
		case *map[string]float64:
			b = appendShares(b, *v, &err)
		}
	}
	return b, err
}

// appendShares appends m's count+1 (0 for nil), then its keys in
// increasing order, each with its share.
func appendShares(b []byte, m map[string]float64, err *error) []byte {
	if m == nil {
		return append(b, 0)
	}
	var arr [16]string // a resolution ladder's worth of keys, on the stack
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = binary.AppendUvarint(b, uint64(len(keys))+1)
	for _, k := range keys {
		b = appendFloat(appendText(b, k), m[k], err)
	}
	return b
}

func appendText(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func flagByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendFloat appends f's 8 bytes or, for NaN and the infinities, leaves
// in *err, unless one is there already, the text a task measuring such a
// value has always failed with: json.Marshal's, from when payloads were
// JSON, which FailureRecord.Error carries into the dataset.
func appendFloat(b []byte, f float64, err *error) []byte {
	if (math.IsNaN(f) || math.IsInf(f, 0)) && *err == nil {
		*err = errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// UnmarshalBinary decodes an uploaded speedtest record into p.
func (p *SpeedtestPayload) UnmarshalBinary(data []byte) error { return decode(data, p.fields()) }

// UnmarshalBinary decodes an uploaded CDN fetch record into p.
func (p *CDNPayload) UnmarshalBinary(data []byte) error { return decode(data, p.fields()) }

// UnmarshalBinary decodes an uploaded resolver identification record into p.
func (p *DNSPayload) UnmarshalBinary(data []byte) error { return decode(data, p.fields()) }

// UnmarshalBinary decodes an uploaded stats-for-nerds record into p.
func (p *VideoPayload) UnmarshalBinary(data []byte) error { return decode(data, p.fields()) }

// UnmarshalBinary decodes an uploaded mtr record into t, reusing t.Hops'
// array: decoding into one trace again and again allocates no hops once
// it is large enough, and overwrites the hops of the previous decode.
func (t *MTRTrace) UnmarshalBinary(data []byte) error {
	t.Hops = t.Hops[:0]
	return decode(data, [7]any{&t.Target, &t.Hops})
}

// decoder is one pass over one payload. Its first failure sticks: every
// later read returns a zero value and consumes nothing.
type decoder struct {
	data []byte
	off  int
	err  error
}

// decode reads data as fields (see fields; a *[]netsim.HopRecord reads
// an mtr record's hops), which must end where data does.
func decode(data []byte, fields [7]any) error {
	d := decoder{data: data}
	for _, f := range fields {
		switch v := f.(type) {
		case *string:
			*v = d.text()
		case *int:
			*v = d.varint()
		case *bool:
			*v = d.flag()
		case *float64:
			*v = d.float()
		case *map[string]float64:
			*v = d.shares()
		case *[]netsim.HopRecord:
			*v = d.hops(*v)
		}
	}
	if d.err == nil && d.off != len(d.data) {
		d.fail("trailing bytes")
	}
	return d.err
}

func (d *decoder) fail(why string) {
	if d.err == nil {
		d.err = fmt.Errorf("amigo: payload: %s at offset %d", why, d.off)
	}
}

// take consumes the next n bytes, or fails if fewer are left.
func (d *decoder) take(n uint64) []byte {
	if d.err == nil && n > uint64(len(d.data)-d.off) {
		d.fail("truncated field")
	}
	if d.err != nil {
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// uvarint consumes a minimal-length uvarint: a multi-byte one may not end
// in a zero byte.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	switch {
	case n <= 0:
		d.fail("truncated or overflowing varint")
	case n > 1 && d.data[d.off+n-1] == 0:
		d.fail("non-minimal varint")
	default:
		d.off += n
		return v
	}
	return 0
}

// varint consumes a zigzag varint: the sign is the low bit.
func (d *decoder) varint() int {
	u := d.uvarint()
	return int(int64(u>>1) ^ -int64(u&1))
}

func (d *decoder) text() string {
	return string(d.take(d.uvarint()))
}

func (d *decoder) flag() bool {
	b := d.take(1)
	if len(b) == 1 && b[0] > 1 {
		d.off--
		d.fail("bool byte above 1")
	}
	return len(b) == 1 && b[0] == 1
}

func (d *decoder) float() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		d.off -= 8
		d.fail("non-finite float")
	}
	return f
}

// shares reads what appendShares writes.
func (d *decoder) shares() map[string]float64 {
	n := d.uvarint()
	if n == 0 || d.err != nil {
		return nil
	}
	m := map[string]float64{}
	prev := ""
	for i := uint64(1); i < n && d.err == nil; i++ {
		start := d.off
		k := d.text()
		if i > 1 && k <= prev {
			d.off = start
			d.fail("shares keys not strictly increasing")
		}
		m[k], prev = d.float(), k
	}
	return m
}

// hops appends an mtr record's hops, as MTRTrace.AppendBinary writes
// them, to dst.
func (d *decoder) hops(dst []netsim.HopRecord) []netsim.HopRecord {
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		hop := netsim.HopRecord{TTL: d.varint(), Responded: d.flag()}
		if hop.Responded {
			if a := d.take(4); a != nil {
				hop.Addr = ipaddr.Addr(binary.BigEndian.Uint32(a))
			}
			hop.BestRTTms = d.float()
		}
		dst = append(dst, hop)
	}
	return dst
}
