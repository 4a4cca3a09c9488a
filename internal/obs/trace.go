package obs

import (
	"sync"
	"time"
)

// Event is one recorded trace entry: a point event (watchdog kill,
// chaos crash, retry give-up).
type Event struct {
	// Seq is the global record sequence number (monotonic, starts at 1).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock record time. It never feeds back into
	// measurement payloads, so it does not perturb determinism.
	Time time.Time `json:"time"`
	// Name labels the event kind ("watchdog-kill", "retry-giveup", ...).
	Name string `json:"name"`
	// Attrs carries event attributes (ME name, op, fault kind, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace is a fixed-capacity ring buffer of events: recording never
// allocates beyond the ring and never blocks on readers; once full,
// each new event overwrites the oldest. Event rates in the fleet are
// low (restarts, give-ups, faults — not per-request), so a small ring
// retains plenty of triage context.
type Trace struct {
	mu  sync.Mutex
	buf []Event
	seq uint64
}

// NewTrace returns a ring recorder retaining the last capacity events
// (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Record appends a point event. No-op on a nil recorder.
func (t *Trace) Record(name string, attrs ...Label) {
	if t == nil {
		return
	}
	//lint:allow clockpurity trace timestamps are operator-facing wall time; they never enter a dataset (the TestFleetMetricsEquivalence rows of internal/fleet's proof table prove metrics/traces are determinism-neutral)
	e := Event{Time: time.Now(), Name: name}
	if len(attrs) > 0 {
		e.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			e.Attrs[a.Key] = a.Value
		}
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	t.buf[(t.seq-1)%uint64(len(t.buf))] = e
	t.mu.Unlock()
}

// Last returns up to n retained events, oldest first (so the newest
// event is the final element). It returns nil on a nil recorder.
func (t *Trace) Last(n int) []Event {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	have := t.seq
	capacity := uint64(len(t.buf))
	if have > capacity {
		have = capacity
	}
	if uint64(n) > have {
		n = int(have)
	}
	out := make([]Event, 0, n)
	for i := t.seq - uint64(n); i < t.seq; i++ {
		out = append(out, t.buf[i%capacity])
	}
	return out
}
