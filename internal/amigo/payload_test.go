package amigo

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"roamsim/internal/ipaddr"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
)

// Edge values for the codec tables.
var (
	edgeFloats = []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e21, 5e-324, math.MaxFloat64,
		-math.MaxFloat64, 0.1, 123456.789, 12.5}
	badFloats   = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	edgeInts    = []int{0, -1, 63, -64, 64, 1 << 20, math.MaxInt, math.MinInt}
	edgeStrings = []string{"", "Karachi", "<script>a && b</script>", "\x00\x01\x1f\b\f\n\r\t\x7f",
		"line\u2028sep", "bad\xffutf8\xc3", "emoji 😀 é \ufffd", strings.Repeat("long ", 40)}
)

// edgePayloads are payloads of every kind over the edge values — signed
// zero, the smallest subnormal, the largest float, the varint length
// boundaries, control bytes, invalid UTF-8, nil and empty shares, no
// hops, silent hops — and, with bad, a non-finite float in every float
// field.
func edgePayloads(bad bool) []payload {
	var cases []payload
	for i, f := range edgeFloats {
		s := edgeStrings[i%len(edgeStrings)]
		n := edgeInts[i%len(edgeInts)]
		cases = append(cases,
			SpeedtestPayload{Server: s, LatencyMs: f, DownMbps: -f, UpMbps: f / 3, CQI: n, RAT: "4G", PublicIP: s + s},
			CDNPayload{Provider: s, Cache: "HIT", DNSMs: f, TotalMs: f / 2, Bytes: n},
			DNSPayload{Resolver: "8.8.8.8", City: s, Country: s, DurationMs: f, DoH: i%2 == 0},
			VideoPayload{Dominant: s, Rebuffers: n, Shares: map[string]float64{s: f, "720p": 0.5, "1080p": -f}},
			MTRTrace{Target: s, Hops: []netsim.HopRecord{
				{TTL: 1, Responded: true, Addr: ipaddr.MustParse("10.0.0.1"), BestRTTms: f},
				{TTL: 2},                                // timed out
				{TTL: 3, Responded: true, BestRTTms: 0}, // 0.0.0.0
				{TTL: n, Responded: true, Addr: ipaddr.MustParse("255.255.255.255"), BestRTTms: 1},
			}},
		)
	}
	cases = append(cases,
		SpeedtestPayload{}, CDNPayload{}, DNSPayload{}, VideoPayload{},
		VideoPayload{Shares: map[string]float64{}},
		VideoPayload{Shares: map[string]float64{"": 3, "a": 1, "a\x00": 2, "b": 0}},
		MTRTrace{}, MTRTrace{Target: "Facebook", Hops: []netsim.HopRecord{{TTL: 1}, {TTL: 2}}},
	)
	if !bad {
		return cases
	}
	for _, f := range badFloats {
		cases = append(cases,
			SpeedtestPayload{LatencyMs: 1, DownMbps: f},
			SpeedtestPayload{UpMbps: math.Inf(1), LatencyMs: f}, // the first bad field names the error
			CDNPayload{TotalMs: f},
			DNSPayload{DurationMs: f},
			VideoPayload{Shares: map[string]float64{"b": f, "a": 1, "c": math.NaN()}},
			MTRTrace{Target: "x", Hops: []netsim.HopRecord{{TTL: 1, Responded: true, BestRTTms: f}}},
			MTRTrace{Target: "x", Hops: []netsim.HopRecord{{TTL: 1, BestRTTms: f}}}, // silent: not uploaded
		)
	}
	return cases
}

// uploaded is what the codec carries of p: an mtr hop's TTL, its
// responded flag and, when it responded, its address and best RTT; the
// rest of a payload whole.
func uploaded(p payload) payload {
	t, ok := p.(MTRTrace)
	if !ok {
		return p
	}
	out := MTRTrace{Target: t.Target}
	for _, h := range t.Hops {
		hop := netsim.HopRecord{TTL: h.TTL, Responded: h.Responded}
		if h.Responded {
			hop.Addr, hop.BestRTTms = h.Addr, h.BestRTTms
		}
		out.Hops = append(out.Hops, hop)
	}
	return out
}

// jsonForm is the value json.Marshal wrote when payloads were JSON: for
// a trace, the MTRPayload runMTR built then.
func jsonForm(p payload) any {
	t, ok := p.(MTRTrace)
	if !ok {
		return p
	}
	out := MTRPayload{Target: t.Target}
	for _, h := range t.Hops {
		hop := MTRHop{TTL: h.TTL}
		if h.Responded {
			hop.Addr, hop.RTTms = h.Addr.String(), h.BestRTTms
		}
		out.Hops = append(out.Hops, hop)
	}
	return out
}

// TestPayloadEncoderMatchesMarshal: the encoder fails exactly where
// json.Marshal of the same measurement failed when payloads were JSON —
// on a NaN or an infinity in an uploaded field, the first in field order
// naming the error — and with its text, which a failed task uploads as
// its Error and FailureRecord.Error carries into the dataset. Whatever
// is appended before the failure is the caller's to drop.
func TestPayloadEncoderMatchesMarshal(t *testing.T) {
	failures := 0
	for _, p := range edgePayloads(true) {
		_, err := p.AppendBinary(nil)
		_, wantErr := json.Marshal(jsonForm(p))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%#v: codec error %v, json.Marshal error %v", p, err, wantErr)
		}
		if err != nil {
			failures++
		}
	}
	if want := 6 * len(badFloats); failures != want {
		t.Errorf("%d payloads failed to encode, want %d", failures, want)
	}
	for _, c := range []struct {
		f    float64
		text string
	}{{math.NaN(), "json: unsupported value: NaN"}, {math.Inf(1), "json: unsupported value: +Inf"},
		{math.Inf(-1), "json: unsupported value: -Inf"}} {
		if _, err := (CDNPayload{TotalMs: c.f}).AppendBinary(nil); err == nil || err.Error() != c.text {
			t.Errorf("total_ms %v: error %v, want %q", c.f, err, c.text)
		}
	}
}

// decodeCodec decodes data as a payload of kind%5 (speedtest, mtr, cdn,
// dns, video) into the payload type that encodes it — mtr into *mtr,
// reused as ingest reuses its trace, so its hops are valid until the next
// decode.
func decodeCodec(mtr *MTRTrace, kind byte, data []byte) (payload, error) {
	switch kind % 5 {
	case 0:
		var p SpeedtestPayload
		err := p.UnmarshalBinary(data)
		return p, err
	case 1:
		err := mtr.UnmarshalBinary(data)
		t := *mtr
		if len(t.Hops) == 0 {
			t.Hops = nil
		}
		return t, err
	case 2:
		var p CDNPayload
		err := p.UnmarshalBinary(data)
		return p, err
	case 3:
		var p DNSPayload
		err := p.UnmarshalBinary(data)
		return p, err
	}
	var p VideoPayload
	err := p.UnmarshalBinary(data)
	return p, err
}

// kindOf is p's decodeCodec kind.
func kindOf(p payload) byte {
	switch p.(type) {
	case SpeedtestPayload:
		return 0
	case MTRTrace:
		return 1
	case CDNPayload:
		return 2
	case DNSPayload:
		return 3
	}
	return 4
}

// roundTrip fails unless p encodes, decodes to what the codec carries of
// it, and the decoded value encodes to the same bytes.
func roundTrip(t *testing.T, mtr *MTRTrace, p payload) {
	t.Helper()
	data, err := p.AppendBinary(nil)
	if err != nil {
		t.Fatalf("%#v: %v", p, err)
	}
	got, err := decodeCodec(mtr, kindOf(p), data)
	if err != nil || !reflect.DeepEqual(got, uploaded(p)) {
		t.Fatalf("%x:\n decoded %#v (%v)\n encoded %#v", data, got, err, uploaded(p))
	}
	if again, err := got.AppendBinary(nil); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("%#v: encodes to %x, re-encodes to %x (%v)", p, data, again, err)
	}
}

// TestDecodeRoundTripsEncoder: decode(encode(v)) == v for every edge
// payload — invalid UTF-8 included, which the bytes carry as they are —
// and encoding the decoded value writes the same bytes.
func TestDecodeRoundTripsEncoder(t *testing.T) {
	var mtr MTRTrace
	for _, p := range edgePayloads(false) {
		roundTrip(t, &mtr, p)
	}
}

// goldenPayloads pins one payload of each kind to its bytes: a change to
// the format is a change to these.
var goldenPayloads = []struct {
	p   payload
	hex string
}{
	{SpeedtestPayload{Server: "Karachi", LatencyMs: 143.25, DownMbps: 21.5, UpMbps: 7, CQI: 11, RAT: "4G",
		PublicIP: "1.2.3.4"}, "074b6172616368690000000000e8614000000000008035400000000000001c401602344707312e322e332e34"},
	{MTRTrace{Target: "Google", Hops: []netsim.HopRecord{{TTL: 1, Responded: true, Addr: ipaddr.MustParse("10.0.0.1"),
		BestRTTms: 1.25}, {TTL: 2}}}, "06476f6f676c650202010a000001000000000000f43f0400"},
	{CDNPayload{Provider: "Cloudflare", Cache: "HIT", DNSMs: 12, TotalMs: -0.5, Bytes: -3},
		"0a436c6f7564666c617265034849540000000000002840000000000000e0bf05"},
	{DNSPayload{Resolver: "8.8.8.8", City: "Frankfurt", Country: "DEU", DurationMs: 33, DoH: true},
		"07382e382e382e38094672616e6b6675727403444555000000000080404001"},
	{VideoPayload{Dominant: "720p", Rebuffers: 2, Shares: map[string]float64{"720p": 0.75, "1080p": 0.25}},
		"04373230700403053130383070000000000000d03f0437323070000000000000e83f"},
}

// TestGoldenPayloads pins the format: each golden payload encodes to its
// bytes and its bytes decode to it.
func TestGoldenPayloads(t *testing.T) {
	var mtr MTRTrace
	for _, g := range goldenPayloads {
		got, err := g.p.AppendBinary(nil)
		if want, _ := hex.DecodeString(g.hex); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%#v:\n got %x (%v)\nwant %s", g.p, got, err, g.hex)
		}
		roundTrip(t, &mtr, g.p)
	}
}

// measureTyped is execute without the encoding: the typed payload the
// endpoint's next task produces, from the same draws execute makes.
func measureTyped(e *Endpoint, task Task) (payload, error) {
	s, err := e.attach(task.Config)
	if err != nil {
		return nil, err
	}
	switch task.Kind {
	case "speedtest":
		return runSpeedtest(s, e.Src)
	case "mtr":
		return runMTR(s, task.Target, e.Src)
	case "cdn":
		return runCDN(s, task.Target, e.Src)
	case "dns":
		return runDNS(s, e.Src)
	case "video":
		return runVideo(s, e.Src)
	}
	return nil, fmt.Errorf("amigo: unknown task kind %q", task.Kind)
}

// measureUnboxed is measureTyped as execute runs it: every payload kept
// as its concrete type, never assigned to the payload interface.
func measureUnboxed(e *Endpoint, task Task) {
	s, err := e.attach(task.Config)
	if err != nil {
		return
	}
	switch task.Kind {
	case "speedtest":
		_, _ = runSpeedtest(s, e.Src)
	case "mtr":
		_, _ = runMTR(s, task.Target, e.Src)
	case "cdn":
		_, _ = runCDN(s, task.Target, e.Src)
	case "dns":
		_, _ = runDNS(s, e.Src)
	case "video":
		_, _ = runVideo(s, e.Src)
	}
}

// deviceSchedule is the device campaign's per-ME schedule — Table 4's nine
// tools × both configurations × four reps, in fleet.Plan's nesting
// (fleet.DeviceCampaignPlan, which this package cannot import).
func deviceSchedule() []Task {
	tools := []Task{{Kind: "speedtest"}, {Kind: "mtr", Target: "Facebook"}, {Kind: "mtr", Target: "Google"},
		{Kind: "cdn", Target: "Cloudflare"}, {Kind: "cdn", Target: "Google CDN"}, {Kind: "cdn", Target: "jQuery CDN"},
		{Kind: "cdn", Target: "jsDelivr"}, {Kind: "cdn", Target: "Microsoft Ajax"}, {Kind: "video"}}
	var tasks []Task
	for _, tool := range tools {
		for _, config := range []string{"sim", "esim"} {
			for rep := 0; rep < 4; rep++ {
				task := tool
				task.Config = config
				tasks = append(tasks, task)
			}
		}
	}
	return tasks
}

// TestCampaignPayloadsMatchMarshal is the codec over real measurements:
// the device campaign's schedule in all ten device countries at seeds 42
// and 7, each task executed by one endpoint and measured by a twin
// drawing the same stream. Every uploaded payload decodes to the very
// value the twin measured — so json.Marshal, which a dataset's hash is
// taken with, writes the same bytes for both — and re-encodes to the
// uploaded bytes. (The fleet test TestCampaignPayloadsRoundTrip checks
// the RunInProcess campaigns' uploaded payloads from the outside.)
func TestCampaignPayloadsMatchMarshal(t *testing.T) {
	w := world(t)
	var mtr MTRTrace
	kinds := map[string]int{}
	for _, seed := range []int64{42, 7} {
		for _, iso := range []string{"GEO", "DEU", "KOR", "PAK", "QAT", "SAU", "ESP", "THA", "ARE", "GBR"} {
			ep := NewEndpoint("me-"+iso, "", w.Deployments[iso], rng.New(seed).Fork(iso))
			twin := NewEndpoint("me-"+iso, "", w.Deployments[iso], rng.New(seed).Fork(iso))
			for _, task := range deviceSchedule() {
				res, _ := ep.execute(task)
				p, err := measureTyped(twin, task)
				if err != nil {
					if res.OK || res.Error != err.Error() {
						t.Fatalf("%s %s/%s: uploaded %v %q, the twin failed with %v", iso, task.Kind, task.Config, res.OK, res.Error, err)
					}
					continue
				}
				got, err := decodeCodec(&mtr, kindOf(p), res.Payload)
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(uploaded(p))
				if err != nil || !res.OK || !reflect.DeepEqual(got, uploaded(p)) || !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("%s %s/%s at seed %d:\n uploaded %#v (%v)\n measured %#v", iso, task.Kind, task.Config, seed, got, err, uploaded(p))
				}
				if again, err := got.AppendBinary(nil); err != nil || !bytes.Equal(again, res.Payload) {
					t.Fatalf("%s %s/%s at seed %d: uploaded %x, re-encodes to %x (%v)", iso, task.Kind, task.Config, seed, res.Payload, again, err)
				}
				kinds[task.Kind]++
			}
		}
	}
	for _, kind := range []string{"speedtest", "mtr", "cdn", "video"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s payload was compared", kind)
		}
	}
}

// FuzzPayloadDecode holds the decoders to the canonical contract: on
// every input of every kind (kind%5: speedtest, mtr, cdn, dns, video) a
// decode that succeeds yields a value the encoder writes back as the
// input, byte for byte. The checked-in corpus
// (testdata/fuzz/FuzzPayloadDecode) holds one canonical payload per kind
// (*-canonical), one input per form the decoders refuse (non-minimal
// varints, a bool byte above 1, non-finite floats, unsorted and repeated
// shares keys, a short field, trailing bytes) and the JSON payloads an ME
// uploaded before the format was binary. The decoder is reused across
// inputs, so hop scratch leaking from one payload into the next fails too.
func FuzzPayloadDecode(f *testing.F) {
	var mtr MTRTrace
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		got, err := decodeCodec(&mtr, kind, data)
		if err != nil {
			return
		}
		if again, err := got.AppendBinary(nil); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("kind %d %x: accepted as %#v, which encodes to %x (%v)", kind%5, data, got, again, err)
		}
	})
}

// hexBytes decodes hex, for the hand-built refused forms.
func hexBytes(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeRejectsNonCanonical names the forms the decoders refuse
// because the encoder never writes them, and checks that every proper
// prefix of a golden payload is refused as a short field.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	const (
		speed = 0
		mtr   = 1
		cdn   = 2
		dns   = 3
		video = 4
	)
	var m MTRTrace
	for _, g := range goldenPayloads {
		data, err := g.p.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			if v, err := decodeCodec(&m, kindOf(g.p), data[:n]); err == nil {
				t.Errorf("%x, %d of its %d bytes, decoded to %#v", data, n, len(data), v)
			}
		}
		if v, err := decodeCodec(&m, kindOf(g.p), append(data, 0)); err == nil {
			t.Errorf("%x with a trailing zero byte decoded to %#v", data, v)
		}
	}
	dnsOf := func(doh string) string {
		return "07382e382e382e38 0142 0143 0000000000804040" + doh
	}
	videoOf := func(shares string) string { return "04373230700a" + shares }
	for _, c := range []struct {
		name string
		kind byte
		hex  string
	}{
		{"canonical DNS (control)", dns, dnsOf("01")},
		{"bool byte 2", dns, dnsOf("02")},
		{"bool byte 0xff", dns, dnsOf("ff")},
		{"non-minimal string length", dns, "8700 382e382e382e38 0142 0143 0000000000804040 01"},
		{"non-minimal int", cdn, "00 00 0000000000000000 0000000000000000 8080 00"},
		{"varint overflowing 64 bits", cdn, "00 00 0000000000000000 0000000000000000 ffffffffffffffffff02"},
		{"varint of 11 bytes", cdn, "00 00 0000000000000000 0000000000000000 ffffffffffffffffffff01"},
		{"string length past the end", speed, "ff01 4b61"},
		{"NaN float", dns, "00 00 00 000000000000f87f 00"},
		{"+Inf float", dns, "00 00 00 000000000000f07f 00"},
		{"-Inf float", dns, "00 00 00 000000000000f0ff 00"},
		{"NaN with a payload", dns, "00 00 00 010000000000f07f 00"},
		{"nil shares (control)", video, videoOf("00")},
		{"shares keys unsorted", video, videoOf("03 0162 000000000000f03f 0161 000000000000f03f")},
		{"shares key repeated", video, videoOf("03 0161 000000000000f03f 0161 000000000000f03f")},
		{"shares key repeated with an empty key", video, videoOf("03 00 000000000000f03f 00 000000000000f03f")},
		{"shares count past the end", video, videoOf("05 0161 000000000000f03f")},
		{"shares NaN", video, videoOf("02 0161 000000000000f87f")},
		{"responded byte 2", mtr, "0147 01 02 02"},
		{"hop count past the end", mtr, "0147 03 02 00 04 00"},
		{"responding hop without its address", mtr, "0147 01 02 01 0a00"},
		{"responding hop with a NaN RTT", mtr, "0147 01 02 01 0a000001 000000000000f87f"},
		{"pre-change JSON", dns, `7b227265736f6c766572223a22382e382e382e38227d`},
	} {
		v, err := decodeCodec(&m, c.kind, hexBytes(t, c.hex))
		control := strings.HasSuffix(c.name, "(control)")
		if control != (err == nil) {
			t.Errorf("%s: %s decoded to %#v (%v)", c.name, c.hex, v, err)
		}
	}
}

// Earlier allocation counts, measured with these tests' bodies in a copy
// of each tree. At 212d635 RunBatch of the 18 tasks below on a fresh
// endpoint took 119 allocations, 31 of them above the tasks' unboxed
// measurements where a batch of one took 13: execute boxed every payload
// into the payload interface. At 65796a9 json.Unmarshal of a 12-hop mtr
// payload into a recycled []MTRHop plus ingestTrace's conversion took 20.
const (
	parentBatch18Allocs    = 119
	parentBatch18Overhead  = 31
	parentMTRDecode12Alloc = 20
)

// batchAllocs measures, on fresh endpoints, what RunBatch of tasks
// allocates and what measuring the same tasks alone does.
func batchAllocs(t *testing.T, tasks []Task) (batch, measured float64) {
	const runs = 10
	dep := world(t).Deployments["DEU"]
	eps := make([]*Endpoint, runs+1)
	twins := make([]*Endpoint, runs+1)
	for i := range eps {
		srv := NewServer(nil)
		if _, err := srv.ScheduleBatch("me-DEU", tasks); err != nil {
			t.Fatal(err)
		}
		eps[i] = NewEndpoint("me-DEU", "", dep, rng.New(3))
		eps[i].Transport = DirectTransport{Server: srv}
		twins[i] = NewEndpoint("me-DEU", "", dep, rng.New(3))
	}
	i := 0
	batch = testing.AllocsPerRun(runs, func() {
		if n, err := eps[i].RunBatch(len(tasks)); err != nil || n != len(tasks) {
			t.Fatalf("RunBatch = %d, %v", n, err)
		}
		i++
	})
	i = 0
	measured = testing.AllocsPerRun(runs, func() {
		for _, task := range tasks {
			measureUnboxed(twins[i], task)
		}
		i++
	})
	return batch, measured
}

// TestRunBatchPayloadAllocs: a leased batch's payloads cost one
// allocation, the batch's slab, however many tasks it holds — beyond its
// tasks' own measurements a batch of 18 allocates exactly what a batch of
// one does. The measurements are taken on execute's own path, payloads
// unboxed, so a per-payload box counts as overhead.
func TestRunBatchPayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	var tasks []Task
	for _, task := range deviceSchedule() {
		if task.Kind != "speedtest" || task.Config != "sim" {
			tasks = append(tasks, task)
		}
		if len(tasks) == 18 {
			break
		}
	}
	batch18, measured18 := batchAllocs(t, tasks)
	batch1, measured1 := batchAllocs(t, tasks[:1])
	over18, over1 := batch18-measured18, batch1-measured1
	t.Logf("RunBatch of 18: %.0f allocations, %.0f above the measurements (parent: %d, %d); of 1: %.0f above",
		batch18, over18, parentBatch18Allocs, parentBatch18Overhead, over1)
	if over18 != over1 {
		t.Errorf("a batch of 18 allocates %.0f beyond its measurements, a batch of one %.0f: something is allocated per payload", over18, over1)
	}
}

// mtr12 is a 12-hop trace as an ME uploads it: ten responding hops, two
// timed out.
func mtr12() MTRTrace {
	t := MTRTrace{Target: "Google"}
	for i, rtt := range []float64{1.25, 8.5, 0, 31.75, 32.5, 90.125, 0, 95, 96.5, 97.25, 98, 98.5} {
		h := netsim.HopRecord{TTL: i + 1}
		if rtt != 0 {
			h.Responded, h.Addr, h.BestRTTms = true, ipaddr.Addr(0xCA_A6_7E_00+i), rtt
		}
		t.Hops = append(t.Hops, h)
	}
	return t
}

// TestMTRDecodeAllocs: decoding a 12-hop traceroute allocates its target
// string and nothing per hop; the hops land in the trace's reused array.
func TestMTRDecodeAllocs(t *testing.T) {
	var m MTRTrace
	data, err := mtr12().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if err := m.UnmarshalBinary(data); err != nil || len(m.Hops) != 12 {
			t.Fatalf("UnmarshalBinary: %d hops, %v", len(m.Hops), err)
		}
	})
	t.Logf("12-hop mtr decode: %.0f allocations (parent: %d)", n, parentMTRDecode12Alloc)
	if n > 1 {
		t.Errorf("12-hop mtr decode allocates %.0f times, want 1 (the target)", n)
	}
}

// benchPayloads are one representative payload per kind.
func benchPayloads() []struct {
	kind string
	p    payload
} {
	var hops []netsim.HopRecord
	for i := 1; i <= 12; i++ {
		h := netsim.HopRecord{TTL: i}
		if i%5 != 3 {
			h.Responded, h.Addr, h.BestRTTms = true, ipaddr.Addr(0xCA_A6_7E_00+i), 1.25*float64(i*i)+0.3
		}
		hops = append(hops, h)
	}
	return []struct {
		kind string
		p    payload
	}{
		{"speedtest", SpeedtestPayload{Server: "Karachi", LatencyMs: 143.27, DownMbps: 21.805, UpMbps: 7.3921,
			CQI: 11, RAT: "4G", PublicIP: "202.166.126.4"}},
		{"mtr", MTRTrace{Target: "Google", Hops: hops}},
		{"cdn", CDNPayload{Provider: "Cloudflare", Cache: "HIT", DNSMs: 12.391, TotalMs: 182.0043, Bytes: 87211}},
		{"dns", DNSPayload{Resolver: "8.8.8.8", City: "Frankfurt", Country: "DEU", DurationMs: 33.71, DoH: true}},
		{"video", VideoPayload{Dominant: "720p", Rebuffers: 2,
			Shares: map[string]float64{"1080p": 0.125, "720p": 0.5625, "480p": 0.25, "360p": 0.0625}}},
	}
}

func BenchmarkPayloadEncode(b *testing.B) {
	for _, c := range benchPayloads() {
		b.Run(c.kind, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 1024)
			for b.Loop() {
				buf, _ = c.p.AppendBinary(buf[:0])
			}
		})
	}
}

func BenchmarkPayloadDecode(b *testing.B) {
	var mtr MTRTrace
	for _, c := range benchPayloads() {
		data, err := c.p.AppendBinary(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.kind, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if _, err := decodeCodec(&mtr, kindOf(c.p), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
