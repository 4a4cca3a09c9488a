package amigo

// The payload codec: the one owner of the JSON the five task kinds
// upload. The endpoint encodes with appendJSON and fleet.Ingest decodes
// with the Decode functions; encoding/json touches a payload only in
// tests, as the oracle. Encoding writes exactly json.Marshal's bytes, so
// the WAL, both results pages and any replay see what they always saw.
// Decoding is canonical-only: it succeeds exactly when appendJSON of the
// decoded value writes the input back byte for byte, and has no fallback
// (DESIGN.md "Payload codec").

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"roamsim/internal/ipaddr"
	"roamsim/internal/netsim"
)

// field is one member of a payload object: its key and a pointer to the
// value it is written from and read into — *string, *float64, *int,
// *bool or *map[string]float64 — or, for an mtr payload's hops, the
// *MTRDecoder they are read into. A payload lists its fields in struct
// order, which is json.Marshal's key order.
type field struct {
	key string
	ptr any
}

func (p *SpeedtestPayload) fields() [7]field {
	return [...]field{{"server", &p.Server}, {"latency_ms", &p.LatencyMs}, {"down_mbps", &p.DownMbps},
		{"up_mbps", &p.UpMbps}, {"cqi", &p.CQI}, {"rat", &p.RAT}, {"public_ip", &p.PublicIP}}
}

func (p *CDNPayload) fields() [5]field {
	return [...]field{{"provider", &p.Provider}, {"cache", &p.Cache}, {"dns_ms", &p.DNSMs},
		{"total_ms", &p.TotalMs}, {"bytes", &p.Bytes}}
}

func (p *DNSPayload) fields() [5]field {
	return [...]field{{"resolver", &p.Resolver}, {"city", &p.City}, {"country", &p.Country},
		{"duration_ms", &p.DurationMs}, {"doh", &p.DoH}}
}

func (p *VideoPayload) fields() [3]field {
	return [...]field{{"dominant", &p.Dominant}, {"rebuffers", &p.Rebuffers}, {"shares", &p.Shares}}
}

func (p SpeedtestPayload) appendJSON(b []byte) ([]byte, error) {
	f := p.fields()
	return appendObject(b, f[:])
}

func (p CDNPayload) appendJSON(b []byte) ([]byte, error) {
	f := p.fields()
	return appendObject(b, f[:])
}

func (p DNSPayload) appendJSON(b []byte) ([]byte, error) {
	f := p.fields()
	return appendObject(b, f[:])
}

func (p VideoPayload) appendJSON(b []byte) ([]byte, error) {
	f := p.fields()
	return appendObject(b, f[:])
}

// appendJSON writes the trace as an MTRPayload — a responding hop's TTL,
// address and best RTT, a silent hop's TTL alone — straight from the
// typed hops, with no per-hop string. No hops is "hops":null, as the
// MTRPayload runMTR used to append hops to from nil marshalled.
func (t mtrTrace) appendJSON(b []byte) ([]byte, error) {
	b = appendString(append(b, `{"target":`...), t.target)
	if len(t.hops) == 0 {
		return append(b, `,"hops":null}`...), nil
	}
	var err error
	b = append(b, `,"hops":[`...)
	for i, h := range t.hops {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"ttl":`...), int64(h.TTL), 10)
		if h.Responded {
			b = append(h.Addr.AppendTo(append(b, `,"addr":"`...)), '"')
			if h.BestRTTms != 0 {
				b = appendFloat(append(b, `,"rtt_ms":`...), h.BestRTTms, &err)
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), err
}

// appendObject appends fields as json.Marshal writes a struct of them,
// or fails with its error.
func appendObject(b []byte, fields []field) ([]byte, error) {
	var err error
	b = append(b, '{')
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), f.key...), '"', ':')
		switch v := f.ptr.(type) {
		case *string:
			b = appendString(b, *v)
		case *int:
			b = strconv.AppendInt(b, int64(*v), 10)
		case *bool:
			b = strconv.AppendBool(b, *v)
		case *float64:
			b = appendFloat(b, *v, &err)
		case *map[string]float64:
			b = appendShares(b, *v, &err)
		}
	}
	return append(b, '}'), err
}

// appendShares appends m as json.Marshal writes a map: keys sorted.
func appendShares(b []byte, m map[string]float64, err *error) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	var arr [16]string // a resolution ladder's worth of keys, on the stack
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(append(appendString(b, k), ':'), m[k], err)
	}
	return append(b, '}')
}

// appendFloat appends f in encoding/json's ES6 form — 'e' below 1e-6 and
// from 1e21, "e-07" shortened to "e-7" — or, for NaN and the infinities,
// leaves json.Marshal's error in *err unless one is there already.
func appendFloat(b []byte, f float64, err *error) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if *err == nil {
			*err = errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// shortEscape is the escape letter of a control byte that has one.
var shortEscape = [' ']byte{'\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}

// verbatim reports whether appendString writes c as itself: printable
// ASCII other than the quote, the backslash and the HTML characters.
func verbatim(c byte) bool {
	return c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as json.Marshal writes a string: <, > and &
// escaped for HTML, control bytes as \b \f \n \r \t or \u00XX, U+2028
// and U+2029 escaped, each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if verbatim(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c < ' ' && shortEscape[c] != 0:
				b = append(b, '\\', shortEscape[c])
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(append(b, s[start:i]...), `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// DecodeSpeedtest decodes an uploaded speedtest payload.
func DecodeSpeedtest(data []byte) (p SpeedtestPayload, err error) {
	f := p.fields()
	err = (&decoder{data: data}).decode(f[:])
	return p, err
}

// DecodeCDN decodes an uploaded CDN fetch payload.
func DecodeCDN(data []byte) (p CDNPayload, err error) {
	f := p.fields()
	err = (&decoder{data: data}).decode(f[:])
	return p, err
}

// DecodeDNS decodes an uploaded resolver identification payload.
func DecodeDNS(data []byte) (p DNSPayload, err error) {
	f := p.fields()
	err = (&decoder{data: data}).decode(f[:])
	return p, err
}

// DecodeVideo decodes an uploaded stats-for-nerds payload.
func DecodeVideo(data []byte) (p VideoPayload, err error) {
	f := p.fields()
	err = (&decoder{data: data}).decode(f[:])
	return p, err
}

// MTRDecoder decodes mtr payloads back into the traceroute they record:
// a hop with an address responded, from that address at its rtt_ms (0
// when absent); any other hop timed out. The zero value is ready; it
// keeps its scratch between calls, so the hops Decode returns are valid
// until the next Decode.
type MTRDecoder struct {
	hops []netsim.HopRecord
	buf  []byte
}

// Decode decodes one mtr payload into its target and traceroute.
func (m *MTRDecoder) Decode(data []byte) (target string, tr netsim.TracerouteResult, err error) {
	m.hops = m.hops[:0]
	d := decoder{data: data, buf: m.buf}
	err = d.decode([]field{{"target", &target}, {"hops", m}})
	if m.buf = d.buf; err != nil {
		return "", tr, err
	}
	if n := len(m.hops); n > 0 {
		tr.DestReached = m.hops[n-1].Responded
	}
	tr.Hops = m.hops
	return target, tr, nil
}

// decoder is one pass over one payload, which must be byte for byte what
// the encoder writes for the value it decodes to: the fields of the
// payload's table in order, each key exactly once, no whitespace, and
// every token one that re-appending the decoded value writes back.
type decoder struct {
	data []byte
	off  int
	buf  []byte // unquoting and re-encoding scratch
}

// decode decodes the whole payload: one object of fields.
func (d *decoder) decode(fields []field) error {
	sep := byte('{')
	for _, f := range fields {
		if !d.key(sep, f.key) {
			return d.fail()
		}
		sep = ','
		if err := d.value(f.ptr); err != nil {
			return err
		}
	}
	if !d.eat("}") || d.off != len(d.data) {
		return d.fail()
	}
	return nil
}

// failAt fails the decode at offset off.
func (d *decoder) failAt(off int) error {
	d.off = off
	return d.fail()
}

func (d *decoder) fail() error {
	if d.off >= len(d.data) {
		return errors.New("amigo: payload: unexpected end of input")
	}
	return fmt.Errorf("amigo: payload: not the canonical encoding at offset %d (%q)", d.off, d.data[d.off])
}

// eat consumes lit if the payload continues with it.
func (d *decoder) eat(lit string) bool {
	n := d.off + len(lit)
	if n > len(d.data) || string(d.data[d.off:n]) != lit {
		return false
	}
	d.off = n
	return true
}

// key consumes sep — the opening brace or a comma — then "key":, or
// nothing if the payload does not continue with them.
func (d *decoder) key(sep byte, key string) bool {
	n := d.off + len(key) + 4
	if n > len(d.data) || d.data[d.off] != sep || d.data[d.off+1] != '"' ||
		string(d.data[d.off+2:n-2]) != key || d.data[n-2] != '"' || d.data[n-1] != ':' {
		return false
	}
	d.off = n
	return true
}

// value decodes the value at off into dst (see field).
func (d *decoder) value(dst any) (err error) {
	switch v := dst.(type) {
	case *string:
		*v, err = d.str()
	case *int, *float64:
		err = d.number(v)
	case *bool:
		if *v = d.eat("true"); !*v && !d.eat("false") {
			err = d.fail()
		}
	case *map[string]float64:
		err = d.shares(v)
	case *MTRDecoder:
		err = d.hops(v)
	}
	return err
}

// shares decodes a map as appendShares writes it: null for nil, else its
// keys strictly increasing.
func (d *decoder) shares(m *map[string]float64) error {
	if d.eat("null") {
		return nil
	}
	if !d.eat("{") {
		return d.fail()
	}
	*m = map[string]float64{}
	for i, prev := 0, ""; !d.eat("}"); i++ {
		if i > 0 && !d.eat(",") {
			return d.fail()
		}
		start := d.off
		k, err := d.str()
		if err != nil {
			return err
		}
		if i > 0 && k <= prev || !d.eat(":") {
			return d.failAt(start)
		}
		var share float64
		if err := d.number(&share); err != nil {
			return err
		}
		(*m)[k], prev = share, k
	}
	return nil
}

// hops decodes the "hops" array as mtrTrace.appendJSON writes it into m's
// scratch: null for none, else per hop its ttl, then for a responding hop
// its address and, when nonzero, its RTT.
func (d *decoder) hops(m *MTRDecoder) error {
	if d.eat("null") {
		return nil
	}
	for sep := "["; sep == "[" || !d.eat("]"); sep = "," {
		var hop netsim.HopRecord
		if !d.eat(sep) || !d.key('{', "ttl") {
			return d.fail()
		}
		if err := d.number(&hop.TTL); err != nil {
			return err
		}
		if d.key(',', "addr") {
			var err error
			if hop.Addr, err = d.addr(); err != nil {
				return fmt.Errorf("amigo: mtr hop %d: %w", len(m.hops)+1, err)
			}
			hop.Responded = true
			if start := d.off; d.key(',', "rtt_ms") {
				if err := d.number(&hop.BestRTTms); err != nil {
					return err
				}
				if hop.BestRTTms == 0 { // omitempty: the encoder leaves a zero out
					return d.failAt(start)
				}
			}
		}
		if !d.eat("}") {
			return d.fail()
		}
		m.hops = append(m.hops, hop)
	}
	return nil
}

// addr decodes a hop address: a quoted dotted quad AppendTo writes back.
func (d *decoder) addr() (ipaddr.Addr, error) {
	if !d.eat(`"`) {
		return 0, d.fail()
	}
	end := bytes.IndexByte(d.data[d.off:], '"')
	if end < 0 {
		return 0, d.failAt(len(d.data))
	}
	text := d.data[d.off : d.off+end]
	a, err := ipaddr.Parse(text)
	if err != nil {
		return 0, err
	}
	var buf [15]byte
	if !bytes.Equal(a.AppendTo(buf[:0]), text) {
		return 0, d.fail()
	}
	d.off += end + 1
	return a, nil
}

// number decodes the number at off into dst, an *int or a *float64, if
// the encoder writes the value back as the same token.
func (d *decoder) number(dst any) error {
	start := d.off
	for ; d.off < len(d.data); d.off++ {
		if c := d.data[d.off]; (c < '0' || c > '9') && c != '-' && c != '.' && c != 'e' && c != 'E' && c != '+' {
			break
		}
	}
	tok := d.data[start:d.off]
	var buf [32]byte
	var again []byte
	var err error
	switch v := dst.(type) {
	case *int:
		var n int64
		n, err = strconv.ParseInt(string(tok), 10, 0)
		*v, again = int(n), strconv.AppendInt(buf[:0], n, 10)
	case *float64:
		*v, err = strconv.ParseFloat(string(tok), 64)
		again = appendFloat(buf[:0], *v, &err)
	}
	if err != nil || !bytes.Equal(again, tok) {
		return d.failAt(start)
	}
	return nil
}

// str decodes the string at off, which must be what appendString writes
// for its text. A string of verbatim bytes is its own text. Anything else
// strconv.Unquote reads, as JSON does each escape appendString emits, and
// the text is re-appended into the scratch to compare, so no other
// escape, no raw control or HTML byte and no invalid UTF-8 passes.
func (d *decoder) str() (string, error) {
	if !d.eat(`"`) {
		return "", d.fail()
	}
	start, i, plain := d.off-1, d.off, true
	for ; i < len(d.data) && d.data[i] != '"'; i++ {
		c := d.data[i]
		if c == '\\' {
			i++
		}
		plain = plain && verbatim(c)
	}
	if i >= len(d.data) {
		return "", d.failAt(len(d.data))
	}
	tok := d.data[start : i+1]
	if plain {
		d.off = i + 1
		return string(tok[1 : len(tok)-1]), nil
	}
	s, err := strconv.Unquote(string(tok))
	if d.buf = appendString(d.buf[:0], s); err != nil || !bytes.Equal(d.buf, tok) {
		return "", d.failAt(start)
	}
	d.off = i + 1
	return s, nil
}
