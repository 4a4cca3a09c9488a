package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4): families sorted by name, a
// "# TYPE" line per family, series sorted by label set, histograms as
// cumulative _bucket/_sum/_count series. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type famSnap struct {
		name   string
		kind   string
		series []any
	}
	r.mu.Lock()
	fams := make([]famSnap, 0, len(r.families))
	for name, f := range r.families {
		fs := famSnap{name: name, kind: f.kind, series: make([]any, 0, len(f.series))}
		for _, m := range f.series {
			fs.series = append(fs.series, m)
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		sort.Slice(f.series, func(i, j int) bool {
			return renderLabels(metricLabels(f.series[i]), "") < renderLabels(metricLabels(f.series[j]), "")
		})
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, m := range f.series {
			if err := writeSeries(w, f.name, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func metricLabels(m any) []Label {
	switch m := m.(type) {
	case *Counter:
		return m.labels
	case *Histogram:
		return m.labels
	case *funcMetric:
		return m.labels
	}
	return nil
}

func writeSeries(w io.Writer, name string, m any) error {
	switch m := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(m.labels, ""), formatValue(float64(m.Value())))
		return err
	case *funcMetric:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(m.labels, ""), formatValue(m.fn()))
		return err
	case *Histogram:
		s := m.Snapshot()
		var cum uint64
		for i, c := range s.Buckets {
			cum += c
			le := "+Inf"
			if i < histBuckets {
				le = formatValue(histBounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(m.labels, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(m.labels, ""), formatValue(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(m.labels, ""), s.Count)
		return err
	}
	return nil
}

// renderLabels formats a label set, appending the reserved "le" label
// when non-empty (histogram buckets). An empty set renders as "".
func renderLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// MetricsHandler serves the registry in Prometheus text format — the
// GET /admin/metrics route. A nil registry serves an empty (still
// valid) exposition.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// TraceHandler serves the newest ring-buffer events as JSON — the
// GET /admin/trace?n=K route (default 100 events, oldest first).
func (r *Registry) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, err := strconv.Atoi(req.URL.Query().Get("n"))
		if err != nil || n <= 0 {
			n = 100
		}
		events := r.Trace().Last(n)
		if events == nil {
			events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"events": events})
	})
}
