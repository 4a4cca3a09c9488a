package amigo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"roamsim/internal/ipaddr"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
)

// mtrPayloadOf is the MTRPayload a trace uploads as, built the way runMTR
// built it before the codec — hop addresses as strings, hops appended to
// a nil slice: the value json.Marshal is the reference for.
func mtrPayloadOf(t mtrTrace) MTRPayload {
	p := MTRPayload{Target: t.target}
	for _, h := range t.hops {
		hop := MTRHop{TTL: h.TTL}
		if h.Responded {
			hop.Addr = h.Addr.String()
			hop.RTTms = h.BestRTTms
		}
		p.Hops = append(p.Hops, hop)
	}
	return p
}

// marshalRef is json.Marshal of the value p uploads as.
func marshalRef(p payload) ([]byte, error) {
	if t, ok := p.(mtrTrace); ok {
		return json.Marshal(mtrPayloadOf(t))
	}
	return json.Marshal(p)
}

// checkEncoding fails unless the codec appends json.Marshal's bytes for
// p — or fails with its error text, appending nothing that survives.
func checkEncoding(t *testing.T, p payload) {
	t.Helper()
	want, wantErr := marshalRef(p)
	const prefix = "prefix|"
	got, err := p.appendJSON([]byte(prefix))
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%#v: codec error %v, json.Marshal error %v", p, err, wantErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got, append([]byte(prefix), want...)) {
		t.Errorf("%#v:\n codec   %s (%v)\n marshal %s", p, got[min(len(got), len(prefix)):], err, want)
	}
}

// Edge values for the encoder table.
var (
	edgeFloats = []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, -1e21,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 0.1, 123456.789, 1.5e300, 3e-10, 12.5}
	badFloats   = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	edgeInts    = []int{0, -1, 15, math.MaxInt, math.MinInt}
	edgeStrings = []string{"", "Karachi", "<script>a && b</script>", "\x00\x01\x1f\b\f\n\r\t\x7f",
		`q"uo\te/`, "line\u2028sep\u2029end", "bad\xffutf8\xc3", "\xe2\x80", "emoji 😀 é \ufffd",
		"\u2027\u202a"}
)

// TestPayloadEncoderMatchesMarshal: for every edge value — signed zero,
// the 'e'-format boundaries, the smallest subnormal, the largest float,
// HTML characters, control bytes, U+2028/2029, invalid UTF-8, nil and
// empty hops and shares, silent hops — the codec writes exactly what
// json.Marshal writes, and fails with json.Marshal's text on NaN and
// infinities (the text a failed task uploads).
func TestPayloadEncoderMatchesMarshal(t *testing.T) {
	var cases []payload
	for i, f := range edgeFloats {
		s := edgeStrings[i%len(edgeStrings)]
		n := edgeInts[i%len(edgeInts)]
		cases = append(cases,
			SpeedtestPayload{Server: s, LatencyMs: f, DownMbps: -f, UpMbps: f / 3, CQI: n, RAT: "4G", PublicIP: s + s},
			CDNPayload{Provider: s, Cache: "HIT", DNSMs: f, TotalMs: f * 2, Bytes: n},
			DNSPayload{Resolver: "8.8.8.8", City: s, Country: s, DurationMs: f, DoH: i%2 == 0},
			VideoPayload{Dominant: s, Rebuffers: n, Shares: map[string]float64{s: f, "720p": 0.5, "1080p": -f}},
			mtrTrace{target: s, hops: []netsim.HopRecord{
				{TTL: 1, Responded: true, Addr: ipaddr.MustParse("10.0.0.1"), BestRTTms: f},
				{TTL: 2},                                // timed out
				{TTL: 3, Responded: true, BestRTTms: 0}, // 0.0.0.0, RTT omitted
				{TTL: n, Responded: true, Addr: ipaddr.MustParse("255.255.255.255"), BestRTTms: 1},
			}},
		)
	}
	for _, s := range edgeStrings {
		cases = append(cases,
			SpeedtestPayload{Server: s, RAT: s, PublicIP: s},
			VideoPayload{Dominant: s, Shares: map[string]float64{s: 1, s + "x": 2, "": 3}},
		)
	}
	cases = append(cases,
		SpeedtestPayload{}, CDNPayload{}, DNSPayload{}, VideoPayload{},
		VideoPayload{Shares: map[string]float64{}},
		mtrTrace{}, mtrTrace{target: "Google", hops: []netsim.HopRecord{}},
		mtrTrace{target: "Facebook", hops: []netsim.HopRecord{{TTL: 1}, {TTL: 2}}},
	)
	for _, bad := range badFloats {
		cases = append(cases,
			SpeedtestPayload{LatencyMs: 1, DownMbps: bad},
			SpeedtestPayload{UpMbps: math.Inf(1), LatencyMs: bad}, // the first bad field names the error
			CDNPayload{TotalMs: bad},
			DNSPayload{DurationMs: bad},
			VideoPayload{Shares: map[string]float64{"b": bad, "a": 1, "c": math.NaN()}},
			mtrTrace{target: "x", hops: []netsim.HopRecord{{TTL: 1, Responded: true, BestRTTms: bad}}},
		)
	}
	for _, p := range cases {
		checkEncoding(t, p)
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

// TestCampaignPayloadsMatchMarshal is the encoder differential over real
// measurements: the device campaign's schedule in all ten device
// countries at seeds 42 and 7, each task executed by one endpoint and
// measured by a twin drawing the same stream, so the uploaded bytes are
// compared with json.Marshal of the very value they encode. (The fleet
// test TestCampaignPayloadsRoundTrip checks the RunInProcess campaigns'
// uploaded payloads from the outside.)
func TestCampaignPayloadsMatchMarshal(t *testing.T) {
	w := world(t)
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
				want, err := marshalRef(p)
				if err != nil || !res.OK || !bytes.Equal(res.Payload, want) {
					t.Fatalf("%s %s/%s at seed %d:\n uploaded %s\n marshal  %s (%v)", iso, task.Kind, task.Config, seed, res.Payload, want, err)
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

// mtrDecoded is what MTRDecoder.Decode returns, for comparing.
type mtrDecoded struct {
	Target string
	Tr     netsim.TracerouteResult
}

// decodeRef is json.Unmarshal into the payload type of kind — for mtr,
// followed by the hop conversion ingest made before the codec — the
// reference FuzzPayloadDecode holds the decoders to.
func decodeRef(kind byte, data []byte) (any, error) {
	switch kind {
	case 0:
		var p SpeedtestPayload
		return p, json.Unmarshal(data, &p)
	case 1:
		var p MTRPayload
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, err
		}
		out := mtrDecoded{Target: p.Target}
		for _, h := range p.Hops {
			hop := netsim.HopRecord{TTL: h.TTL}
			if h.Addr != "" {
				addr, err := ipaddr.Parse(h.Addr)
				if err != nil {
					return nil, err
				}
				hop.Responded, hop.Addr, hop.BestRTTms = true, addr, h.RTTms
			}
			out.Tr.Hops = append(out.Tr.Hops, hop)
		}
		if n := len(out.Tr.Hops); n > 0 {
			out.Tr.DestReached = out.Tr.Hops[n-1].Responded
		}
		return out, nil
	case 2:
		var p CDNPayload
		return p, json.Unmarshal(data, &p)
	case 3:
		var p DNSPayload
		return p, json.Unmarshal(data, &p)
	}
	var p VideoPayload
	return p, json.Unmarshal(data, &p)
}

// decodeCodec decodes with the codec; mtr reuses one decoder, as ingest does.
func decodeCodec(mtr *MTRDecoder, kind byte, data []byte) (any, error) {
	switch kind {
	case 0:
		return DecodeSpeedtest(data)
	case 1:
		target, tr, err := mtr.Decode(data)
		if len(tr.Hops) == 0 {
			tr.Hops = nil
		}
		return mtrDecoded{target, tr}, err
	case 2:
		return DecodeCDN(data)
	case 3:
		return DecodeDNS(data)
	}
	return DecodeVideo(data)
}

// reencode is appendJSON of a decoded value.
func reencode(v any) ([]byte, error) {
	if m, ok := v.(mtrDecoded); ok {
		return mtrTrace{target: m.Target, hops: m.Tr.Hops}.appendJSON(nil)
	}
	return v.(payload).appendJSON(nil)
}

// FuzzPayloadDecode holds the decoders to the canonical contract: on every
// input of every kind (kind%5: speedtest, mtr, cdn, dns, video) a decode
// succeeds exactly when appendJSON of the decoded value writes the input
// back, and then json.Unmarshal reads the same value; a rejected input is
// one json.Unmarshal fails, or whose value appendJSON writes differently.
// The checked-in corpus (testdata/fuzz/FuzzPayloadDecode) carries the
// encoder's edge values and every form encoding/json accepts beyond its
// own output — whitespace and key order, case-folded and duplicate keys,
// repeated hops arrays and shares objects, unknown keys of every type,
// null, escapes and surrogates, invalid UTF-8, deep nesting — and type
// and range errors. The decoder is reused across inputs, so hop scratch
// leaking from one payload into the next fails too.
func FuzzPayloadDecode(f *testing.F) {
	var mtr MTRDecoder
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		kind %= 5
		want, wantErr := decodeRef(kind, data)
		got, err := decodeCodec(&mtr, kind, data)
		if err != nil {
			if wantErr == nil {
				if again, err := reencode(want); err == nil && bytes.Equal(again, data) {
					t.Fatalf("kind %d %q: the encoder writes this, yet the codec rejects it: %v", kind, data, err)
				}
			}
			return
		}
		if again, err := reencode(got); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("kind %d %q: accepted, but appendJSON writes %q (%v)", kind, data, again, err)
		}
		if wantErr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("kind %d %q:\n codec     %+v\n unmarshal %+v (%v)", kind, data, got, want, wantErr)
		}
	})
}

// TestDecodeRejectsNonCanonical names the forms json.Unmarshal reads and
// the decoders refuse, because appendJSON never writes them.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	const (
		speed = 0
		mtr   = 1
		dns   = 3
		video = 4
	)
	st := `"server":"Karachi","latency_ms":1.5,"down_mbps":2,"up_mbps":3,"cqi":11,"rat":"4G","public_ip":"1.2.3.4"`
	badUTF8, err := VideoPayload{Dominant: "bad\xff"}.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var m MTRDecoder
	for _, c := range []struct {
		name string
		kind byte
		data string
	}{
		{"whitespace between tokens", speed, `{ ` + st + `}`},
		{"trailing whitespace", speed, `{` + st + "}\n"},
		{"null payload", speed, `null`},
		{"case-folded key", speed, `{"SERVER"` + st[len(`"server"`):] + `}`},
		{"keys out of order", dns, `{"city":"Berlin","resolver":"8.8.8.8","country":"DEU","duration_ms":3,"doh":true}`},
		{"missing field", dns, `{"resolver":"8.8.8.8","city":"Berlin","country":"DEU","duration_ms":3}`},
		{"duplicate key", speed, `{` + st + `,"cqi":12}`},
		{"unknown key", speed, `{` + st + `,"extra":1}`},
		{"unknown key nested deep", speed, `{` + st + `,"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`},
		{"number with exponent", speed, `{"server":"Karachi","latency_ms":15e-1` + st[len(`"server":"Karachi","latency_ms":1.5`):] + `}`},
		{"number with trailing zero", speed, `{"server":"Karachi","latency_ms":1.50` + st[len(`"server":"Karachi","latency_ms":1.5`):] + `}`},
		{"float to more digits than it holds", speed, `{"server":"Karachi","latency_ms":1.50000000000000001` + st[len(`"server":"Karachi","latency_ms":1.5`):] + `}`},
		{"negative zero int", speed, strings.Replace(`{`+st+`}`, `"cqi":11`, `"cqi":-0`, 1)},
		{"escaped slash", speed, strings.Replace(`{`+st+`}`, `"4G"`, `"4\/G"`, 1)},
		{"uppercase hex escape", speed, strings.Replace(`{`+st+`}`, `"4G"`, `"\u003C"`, 1)},
		{"escaped plain letter", speed, strings.Replace(`{`+st+`}`, `"4G"`, `"\u0034G"`, 1)},
		{"raw HTML character", speed, strings.Replace(`{`+st+`}`, `"4G"`, `"<4G>"`, 1)},
		{"raw line separator", speed, strings.Replace(`{`+st+`}`, `"4G"`, "\"4G\u2028\"", 1)},
		{"surrogate pair escape", speed, strings.Replace(`{`+st+`}`, `"4G"`, `"\ud83d\ude00"`, 1)},
		{"lone surrogate escape", speed, strings.Replace(`{`+st+`}`, `"4G"`, `"\ud83d"`, 1)},
		{"invalid UTF-8", speed, strings.Replace(`{`+st+`}`, `"4G"`, "\"4G\xff\"", 1)},
		{"invalid UTF-8 as the encoder writes it", video, string(badUTF8)},
		{"null string", speed, strings.Replace(`{`+st+`}`, `"4G"`, `null`, 1)},
		{"empty hops array", mtr, `{"target":"Google","hops":[]}`},
		{"repeated hops", mtr, `{"target":"Google","hops":[{"ttl":1}],"hops":[{"ttl":2}]}`},
		{"empty address present", mtr, `{"target":"Google","hops":[{"ttl":1,"addr":""}]}`},
		{"zero RTT present", mtr, `{"target":"Google","hops":[{"ttl":1,"addr":"10.0.0.1","rtt_ms":0}]}`},
		{"RTT of a silent hop", mtr, `{"target":"Google","hops":[{"ttl":1,"rtt_ms":3}]}`},
		{"null hop", mtr, `{"target":"Google","hops":[null]}`},
		{"shares keys unsorted", video, `{"dominant":"720p","rebuffers":0,"shares":{"720p":0.5,"1080p":0.5}}`},
		{"duplicate shares key", video, `{"dominant":"720p","rebuffers":0,"shares":{"720p":0.5,"720p":0.5}}`},
		{"repeated shares", video, `{"dominant":"720p","rebuffers":0,"shares":{"1080p":1},"shares":{"720p":1}}`},
		{"null share", video, `{"dominant":"720p","rebuffers":0,"shares":{"720p":null}}`},
	} {
		if _, err := decodeRef(c.kind, []byte(c.data)); err != nil {
			t.Errorf("%s: json.Unmarshal rejects %q too (%v); the case shows nothing", c.name, c.data, err)
		}
		if v, err := decodeCodec(&m, c.kind, []byte(c.data)); err == nil {
			t.Errorf("%s: %q decoded to %+v, want a rejection", c.name, c.data, v)
		}
	}
}

// TestDecodeRoundTripsEncoder: whatever the encoder writes for valid UTF-8
// text, the decoders read back to the value json.Unmarshal reads from the
// same bytes. (Invalid UTF-8 is written as \ufffd, which reads back as
// U+FFFD and so does not round-trip: TestDecodeRejectsNonCanonical.)
func TestDecodeRoundTripsEncoder(t *testing.T) {
	var mtr MTRDecoder
	var valid []string
	for _, s := range edgeStrings {
		if utf8.ValidString(s) {
			valid = append(valid, s)
		}
	}
	for i, f := range edgeFloats {
		s := valid[i%len(valid)]
		for kind, p := range []payload{
			SpeedtestPayload{Server: s, LatencyMs: f, CQI: edgeInts[i%len(edgeInts)], PublicIP: s},
			mtrTrace{target: s, hops: []netsim.HopRecord{{TTL: 1, Responded: true, Addr: 42, BestRTTms: f}, {TTL: 2}}},
			CDNPayload{Provider: s, DNSMs: f, Bytes: i},
			DNSPayload{City: s, DurationMs: f, DoH: true},
			VideoPayload{Dominant: s, Shares: map[string]float64{s: f, s + "x": -f}},
		} {
			data, err := p.appendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := decodeRef(byte(kind), data)
			got, err := decodeCodec(&mtr, byte(kind), data)
			if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: codec %+v (%v), json.Unmarshal %+v (%v)", data, got, err, want, wantErr)
			}
		}
	}
}

// Parent (65796a9) allocation counts, measured with these tests' bodies
// in a scratch copy of that tree: RunBatch of the 18 tasks below on a
// fresh endpoint took 379 allocations, 29 of them above the tasks' own
// measurements (350, every mtr hop address a string among them) where a
// batch of one took 12; json.Unmarshal of mtr12 into a recycled []MTRHop
// plus ingestTrace's conversion took 20.
const (
	parentBatch18Allocs    = 379
	parentBatch18Overhead  = 29
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
		srv.Register("me-DEU", "DEU")
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
			measureTyped(twins[i], task)
		}
		i++
	})
	return batch, measured
}

// TestRunBatchPayloadAllocs: a leased batch's payloads cost one
// allocation, the batch's slab, however many tasks it holds — beyond its
// tasks' own measurements a batch of 18 allocates exactly what a batch of
// one does. At the parent every payload was its own json.Marshal buffer
// and every mtr hop address its own string.
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

// mtr12 is a 12-hop payload as an ME uploads it: ten responding hops,
// two timed out.
const mtr12 = `{"target":"Google","hops":[{"ttl":1,"addr":"10.0.0.1","rtt_ms":1.25},{"ttl":2,"addr":"100.64.3.9","rtt_ms":8.5},` +
	`{"ttl":3},{"ttl":4,"addr":"202.166.126.4","rtt_ms":31.75},{"ttl":5,"addr":"202.166.126.9","rtt_ms":32.5},` +
	`{"ttl":6,"addr":"80.81.192.10","rtt_ms":90.125},{"ttl":7},{"ttl":8,"addr":"72.14.196.1","rtt_ms":95},` +
	`{"ttl":9,"addr":"108.170.252.1","rtt_ms":96.5},{"ttl":10,"addr":"142.250.46.1","rtt_ms":97.25},` +
	`{"ttl":11,"addr":"142.250.186.1","rtt_ms":98},{"ttl":12,"addr":"142.250.186.14","rtt_ms":98.5}]}`

// TestMTRDecodeAllocs: decoding a 12-hop traceroute allocates its target
// string and nothing per hop; the hops land in the decoder's scratch.
func TestMTRDecodeAllocs(t *testing.T) {
	var m MTRDecoder
	data := []byte(mtr12)
	n := testing.AllocsPerRun(100, func() {
		if _, tr, err := m.Decode(data); err != nil || len(tr.Hops) != 12 {
			t.Fatalf("Decode: %d hops, %v", len(tr.Hops), err)
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
		{"mtr", mtrTrace{target: "Google", hops: hops}},
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
				buf, _ = c.p.appendJSON(buf[:0])
			}
		})
	}
}

func BenchmarkPayloadDecode(b *testing.B) {
	var mtr MTRDecoder
	for kind, c := range benchPayloads() {
		data, err := c.p.appendJSON(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.kind, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if _, err := decodeCodec(&mtr, byte(kind), data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
