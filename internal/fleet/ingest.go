package fleet

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"

	"roamsim/internal/amigo"
	"roamsim/internal/core"
	"roamsim/internal/ipreg"
	"roamsim/internal/netsim"
	"roamsim/internal/report"
	"roamsim/internal/stats"
)

// Dataset holds the campaign's uploaded payloads folded into typed
// records, in canonical (ME, task) order. It is the fleet analogue of
// the in-process campaign's memoized observation slices.
type Dataset struct {
	Speed    []SpeedRecord   `json:"speed,omitempty"`
	Traces   []TraceRecord   `json:"traces,omitempty"`
	CDN      []CDNRecord     `json:"cdn,omitempty"`
	DNS      []DNSRecord     `json:"dns,omitempty"`
	Video    []VideoRecord   `json:"video,omitempty"`
	Failures []FailureRecord `json:"failures,omitempty"`
}

// SpeedRecord is one ingested speedtest observation.
type SpeedRecord struct {
	ME      string                 `json:"me"`
	ISO     string                 `json:"iso"`
	Config  string                 `json:"config"`
	Payload amigo.SpeedtestPayload `json:"payload"`
}

// TraceRecord is one ingested traceroute, re-demarcated with the core
// methodology (first public IP = PGW boundary).
type TraceRecord struct {
	ME     string `json:"me"`
	ISO    string `json:"iso"`
	Config string `json:"config"`
	Target string `json:"target"`
	Hops   int    `json:"hops"`
	// Demarcated is false when the path never showed a public IP
	// (silent CG-NAT), in which case PA is zero.
	Demarcated bool              `json:"demarcated"`
	PA         core.PathAnalysis `json:"pa"`
}

// CDNRecord is one ingested CDN fetch.
type CDNRecord struct {
	ME      string           `json:"me"`
	ISO     string           `json:"iso"`
	Config  string           `json:"config"`
	Payload amigo.CDNPayload `json:"payload"`
}

// DNSRecord is one ingested resolver identification.
type DNSRecord struct {
	ME      string           `json:"me"`
	ISO     string           `json:"iso"`
	Config  string           `json:"config"`
	Payload amigo.DNSPayload `json:"payload"`
}

// VideoRecord is one ingested video session.
type VideoRecord struct {
	ME      string             `json:"me"`
	ISO     string             `json:"iso"`
	Config  string             `json:"config"`
	Payload amigo.VideoPayload `json:"payload"`
}

// FailureRecord is one failed task (e.g. a SIM task in an eSIM-only
// country).
type FailureRecord struct {
	ME     string `json:"me"`
	ISO    string `json:"iso"`
	Kind   string `json:"kind"`
	Config string `json:"config"`
	Error  string `json:"error"`
}

// Ingest folds a campaign's uploaded results into a Dataset. Results
// are first sorted by (ME, task ID) — per-ME IDs are monotonic in
// schedule order, so this is the canonical order no matter how uploads
// interleaved — then deduplicated on (ME, task ID): a crash-replayed or
// double-delivered upload that slipped past the server's idempotency
// keys contributes only its first (arrival-order) copy. Finally
// server-assigned fields (task IDs, upload stamps) are dropped, making
// the dataset byte-identical across worker counts — and across chaos
// configurations — for a fixed seed.
//
// Decoding the payloads is the expensive part and runs on every core:
// the canonical sequence is cut into GOMAXPROCS contiguous chunks at ME
// boundaries, each folded into a partial dataset by its own goroutine,
// and the parts are concatenated in chunk order. Every chunk stops at
// its own first bad result and the lowest chunk's error is reported, so
// the dataset and the error are those of a serial fold at any
// GOMAXPROCS.
func Ingest(reg *ipreg.Registry, c *Campaign) (*Dataset, error) {
	meISO := make(map[string]string, len(c.Schedules))
	for _, sc := range c.Schedules {
		meISO[sc.Name] = sc.ISO
	}
	rs := append([]amigo.Result(nil), c.Results...)
	slices.SortStableFunc(rs, func(a, b amigo.Result) int {
		if c := strings.Compare(a.ME, b.ME); c != 0 {
			return c
		}
		return cmp.Compare(a.TaskID, b.TaskID)
	})
	uniq := rs[:0]
	for i := range rs {
		if i > 0 && rs[i].ME == rs[i-1].ME && rs[i].TaskID == rs[i-1].TaskID {
			continue // duplicate upload of the same task
		}
		uniq = append(uniq, rs[i])
	}

	chunks := cutAtMEs(uniq, runtime.GOMAXPROCS(0))
	parts := make([]Dataset, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i := range chunks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = parts[i].fold(reg, meISO, chunks[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(parts) == 1 {
		return &parts[0], nil
	}
	return &Dataset{
		Speed:    joinParts(parts, func(p *Dataset) []SpeedRecord { return p.Speed }),
		Traces:   joinParts(parts, func(p *Dataset) []TraceRecord { return p.Traces }),
		CDN:      joinParts(parts, func(p *Dataset) []CDNRecord { return p.CDN }),
		DNS:      joinParts(parts, func(p *Dataset) []DNSRecord { return p.DNS }),
		Video:    joinParts(parts, func(p *Dataset) []VideoRecord { return p.Video }),
		Failures: joinParts(parts, func(p *Dataset) []FailureRecord { return p.Failures }),
	}, nil
}

// joinParts concatenates one record kind across the partial datasets,
// in chunk order, into a slice of exactly the joined length (nil when
// there is nothing to join, as a serial fold would leave it).
func joinParts[T any](parts []Dataset, of func(*Dataset) []T) []T {
	total := 0
	for i := range parts {
		total += len(of(&parts[i]))
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	for i := range parts {
		out = append(out, of(&parts[i])...)
	}
	return out
}

// cutAtMEs splits the (ME, task)-sorted results into at most n
// contiguous chunks of about equal length, moving each cut forward to
// the next ME boundary so no ME's results straddle two chunks.
func cutAtMEs(rs []amigo.Result, n int) [][]amigo.Result {
	var chunks [][]amigo.Result
	for start := 0; start < len(rs); {
		end := len(rs)
		if left := n - len(chunks); left > 1 {
			end = start + (len(rs)-start+left-1)/left
			for end < len(rs) && rs[end].ME == rs[end-1].ME {
				end++
			}
		}
		chunks = append(chunks, rs[start:end])
		start = end
	}
	return chunks
}

// fold appends the typed records of rs — sorted and deduplicated by
// Ingest — to ds, stopping at the first result it cannot ingest. The
// payloads are decoded by amigo's codec, the format's one owner. Each
// kind is sized once from a count of its results; slices.Grow leaves a
// kind with none nil, as appending did, so the Dataset is the same value
// (reflect.DeepEqual, like a JSON field without omitempty, tells a nil
// slice from an empty one).
func (ds *Dataset) fold(reg *ipreg.Registry, meISO map[string]string, rs []amigo.Result) error {
	var speed, traces, cdn, dns, video, failures int
	for i := range rs {
		switch {
		case !rs[i].OK:
			failures++
		case rs[i].Kind == "speedtest":
			speed++
		case rs[i].Kind == "mtr":
			traces++
		case rs[i].Kind == "cdn":
			cdn++
		case rs[i].Kind == "dns":
			dns++
		case rs[i].Kind == "video":
			video++
		}
	}
	ds.Speed = slices.Grow(ds.Speed, speed)
	ds.Traces = slices.Grow(ds.Traces, traces)
	ds.CDN = slices.Grow(ds.CDN, cdn)
	ds.DNS = slices.Grow(ds.DNS, dns)
	ds.Video = slices.Grow(ds.Video, video)
	ds.Failures = slices.Grow(ds.Failures, failures)
	var trace amigo.MTRTrace // its hops' array serves every traceroute of the chunk
	for _, res := range rs {
		iso, ok := meISO[res.ME]
		if !ok {
			return fmt.Errorf("fleet: result from ME %q outside the campaign", res.ME)
		}
		if !res.OK {
			ds.Failures = append(ds.Failures, FailureRecord{
				ME: res.ME, ISO: iso, Kind: res.Kind, Config: res.Config, Error: res.Error,
			})
			continue
		}
		var err error
		switch res.Kind {
		case "speedtest":
			var p amigo.SpeedtestPayload
			if err = p.UnmarshalBinary(res.Payload); err == nil {
				ds.Speed = append(ds.Speed, SpeedRecord{ME: res.ME, ISO: iso, Config: res.Config, Payload: p})
			}
		case "mtr":
			if err = trace.UnmarshalBinary(res.Payload); err == nil {
				rec, err := demarcate(reg, res, iso, trace)
				if err != nil {
					return err
				}
				ds.Traces = append(ds.Traces, rec)
			}
		case "cdn":
			var p amigo.CDNPayload
			if err = p.UnmarshalBinary(res.Payload); err == nil {
				ds.CDN = append(ds.CDN, CDNRecord{ME: res.ME, ISO: iso, Config: res.Config, Payload: p})
			}
		case "dns":
			var p amigo.DNSPayload
			if err = p.UnmarshalBinary(res.Payload); err == nil {
				ds.DNS = append(ds.DNS, DNSRecord{ME: res.ME, ISO: iso, Config: res.Config, Payload: p})
			}
		case "video":
			var p amigo.VideoPayload
			if err = p.UnmarshalBinary(res.Payload); err == nil {
				ds.Video = append(ds.Video, VideoRecord{ME: res.ME, ISO: iso, Config: res.Config, Payload: p})
			}
		default:
			return fmt.Errorf("fleet: unknown result kind %q from %s", res.Kind, res.ME)
		}
		if err != nil {
			return fmt.Errorf("fleet: bad %s payload from %s: %w", res.Kind, res.ME, err)
		}
	}
	return nil
}

// demarcate re-runs the core demarcation methodology on an uploaded
// traceroute, exactly as the paper's parser did on uploaded mtr output.
func demarcate(reg *ipreg.Registry, res amigo.Result, iso string, trace amigo.MTRTrace) (TraceRecord, error) {
	n := len(trace.Hops)
	tr := netsim.TracerouteResult{Hops: trace.Hops, DestReached: n > 0 && trace.Hops[n-1].Responded}
	rec := TraceRecord{ME: res.ME, ISO: iso, Config: res.Config, Target: trace.Target, Hops: n}
	pa, err := core.Demarcate(tr, reg)
	if err != nil {
		if errors.Is(err, core.ErrNoPublicHop) {
			return rec, nil // fully silent path: keep the trace, skip demarcation
		}
		return rec, err
	}
	rec.Demarcated = true
	rec.PA = pa
	return rec, nil
}

// toolLabel maps a task to its Table 4 column label.
func toolLabel(kind, target string) string {
	switch kind {
	case "speedtest":
		return "Ookla"
	case "video":
		return "Video"
	case "dns":
		return "DNS"
	case "mtr":
		switch target {
		case "Facebook":
			return "MTR(FB)"
		case "Google":
			return "MTR(GGL)"
		}
		return "MTR(" + target + ")"
	case "cdn":
		switch target {
		case "Cloudflare":
			return "CDN(CF)"
		case "Google CDN":
			return "CDN(GGL)"
		case "jQuery CDN":
			return "CDN(jQ)"
		case "jsDelivr":
			return "CDN(jsD)"
		case "Microsoft Ajax":
			return "CDN(MS)"
		}
		return "CDN(" + target + ")"
	}
	return kind
}

// Table4 regenerates the paper's Table 4 from a fleet-ingested dataset:
// successful tests per (country, tool, configuration), formatted
// <SIM> // <eSIM>. Countries and columns follow the plan's order.
// experiments.Table4 is this table over RunInProcess on the
// device-campaign plan.
func Table4(ds *Dataset, plan Plan) *report.Table {
	plan = plan.withDefaults()
	var labels []string
	seen := map[string]bool{}
	for _, task := range plan.Tasks {
		l := toolLabel(task.Kind, task.Target)
		if !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
	}

	type cell struct{ sim, esim int }
	counts := map[string]map[string]*cell{}
	add := func(iso, label, config string) {
		if counts[iso] == nil {
			counts[iso] = map[string]*cell{}
		}
		if counts[iso][label] == nil {
			counts[iso][label] = &cell{}
		}
		if config == "sim" {
			counts[iso][label].sim++
		} else {
			counts[iso][label].esim++
		}
	}
	for _, r := range ds.Speed {
		add(r.ISO, "Ookla", r.Config)
	}
	for _, r := range ds.Traces {
		add(r.ISO, toolLabel("mtr", r.Target), r.Config)
	}
	for _, r := range ds.CDN {
		add(r.ISO, toolLabel("cdn", r.Payload.Provider), r.Config)
	}
	for _, r := range ds.DNS {
		add(r.ISO, "DNS", r.Config)
	}
	for _, r := range ds.Video {
		add(r.ISO, "Video", r.Config)
	}

	t := &report.Table{
		Title:   "Table 4: device-based campaign (successful tests, <SIM> // <eSIM>)",
		Headers: append([]string{"Country"}, labels...),
	}
	for _, iso := range plan.Countries {
		row := []any{iso}
		for _, label := range labels {
			c := counts[iso][label]
			if c == nil {
				c = &cell{}
			}
			row = append(row, fmt.Sprintf("%d // %d", c.sim, c.esim))
		}
		t.AddRow(row...)
	}
	return t
}

// RTTSummary aggregates the dataset Figure 11-style: per (country,
// configuration), the median final-hop RTT to Facebook and Google and
// the median Ookla latency.
func RTTSummary(ds *Dataset, plan Plan) *report.Table {
	plan = plan.withDefaults()
	t := &report.Table{
		Title:   "Fleet RTT summary (Figure 11 style): final-hop RTT to Facebook / Google, Ookla latency",
		Headers: []string{"Country", "Config", "FB median (ms)", "GGL median (ms)", "Ookla median (ms)"},
	}
	median := func(v []float64) string {
		if len(v) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", stats.Median(v))
	}
	for _, iso := range plan.Countries {
		for _, config := range plan.Configs {
			var fb, ggl, ook []float64
			for _, r := range ds.Traces {
				if r.ISO != iso || r.Config != config || !r.Demarcated {
					continue
				}
				switch r.Target {
				case "Facebook":
					fb = append(fb, r.PA.FinalRTTms)
				case "Google":
					ggl = append(ggl, r.PA.FinalRTTms)
				}
			}
			for _, r := range ds.Speed {
				if r.ISO == iso && r.Config == config {
					ook = append(ook, r.Payload.LatencyMs)
				}
			}
			if len(fb)+len(ggl)+len(ook) == 0 {
				continue
			}
			t.AddRow(iso, config, median(fb), median(ggl), median(ook))
		}
	}
	return t
}

// Crosscheck holds got's JSON bytes to want's, the check roam-fleet
// -crosscheck and the proof table make, and returns the sha256 of got's.
// A mismatch is an error that names both hashes and the first record
// at which the datasets part (Diff).
func Crosscheck(got, want *Dataset) ([sha256.Size]byte, error) {
	gb, gerr := json.Marshal(got)
	wb, werr := json.Marshal(want)
	sum, wsum := sha256.Sum256(gb), sha256.Sum256(wb)
	if err := errors.Join(gerr, werr); err != nil || bytes.Equal(gb, wb) {
		return sum, err
	}
	return sum, fmt.Errorf("dataset sha256 %x, want %x: %s", sum[:8], wsum[:8], Diff(got, want))
}

// Diff names the first record at which got and want part: its kind, its
// index among that kind's records, its ME on each side and both sides as
// JSON.
func Diff(got, want *Dataset) string {
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for f := 0; f < gv.NumField(); f++ {
		kind, _, _ := strings.Cut(gv.Type().Field(f).Tag.Get("json"), ",")
		g, w := gv.Field(f), wv.Field(f)
		for i := 0; i < max(g.Len(), w.Len()); i++ {
			gj, me := recordAt(g, i)
			wj, wme := recordAt(w, i)
			if gj != wj {
				if me != wme {
					me = fmt.Sprintf("%s (want: %s)", me, wme)
				}
				return fmt.Sprintf("%s[%d] of ME %s\n got: %s\nwant: %s", kind, i, me, gj, wj)
			}
		}
	}
	return "no record differs"
}

func recordAt(records reflect.Value, i int) (js, me string) {
	if i >= records.Len() {
		return "(none)", ""
	}
	rec := records.Index(i)
	b, err := json.Marshal(rec.Interface())
	if err != nil {
		return err.Error(), ""
	}
	return string(b), rec.FieldByName("ME").String()
}
