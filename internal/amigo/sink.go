package amigo

import "sync"

// Sink receives drained result batches from the server's bounded spool.
// Implementations must be safe for concurrent use; the server serializes
// Append calls itself, but a sink may also be read while appending (the
// MemorySink is, by admin pollers).
type Sink interface {
	Append(batch []Result)
}

// CursorSink is a Sink that can also be read back incrementally by
// cursor, which is what backs Server.Results / Server.ResultsSince and
// the paged GET /admin/results route. MemorySink and walsink.Sink both
// implement it; a write-only Sink (a forwarding pipe, say) may not, in
// which case the admin results route answers 501 instead of silently
// serving an empty page.
type CursorSink interface {
	Sink
	// Since returns a page of the results at positions >= cursor — never
	// more than limit of them when limit > 0 — plus the cursor one past
	// the last returned result. The page is the caller's: the sink does
	// only a page's worth of work to produce it and keeps no reference.
	// Implementations MAY return fewer than limit, and bound the page
	// when limit <= 0, rather than serve everything retained (a
	// disk-backed sink does); callers must loop until the cursor stops
	// advancing. An out-of-range cursor is clamped into [0, Len()].
	Since(cursor, limit int) ([]Result, int)
	// Len is the cursor one past the newest retained result.
	Len() int
}

// MemorySink is the default sink: it retains every drained result in
// arrival order and supports incremental cursor reads, which is what
// backs Server.Results and Server.ResultsSince.
type MemorySink struct {
	mu      sync.RWMutex
	results []Result
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Append implements Sink.
func (m *MemorySink) Append(batch []Result) {
	m.mu.Lock()
	m.results = append(m.results, batch...)
	m.mu.Unlock()
}

// Len returns the number of retained results, which is also the cursor
// one past the newest result.
func (m *MemorySink) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.results)
}

// Since implements CursorSink: a copy of the results at positions
// >= cursor — everything retained when limit <= 0, else at most limit of
// them, so a paged read copies each result once rather than the whole
// tail per page — and the cursor one past the last of them.
func (m *MemorySink) Since(cursor, limit int) ([]Result, int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cursor = max(0, min(cursor, len(m.results)))
	end := len(m.results)
	if limit > 0 && end-cursor > limit {
		end = cursor + limit
	}
	return append([]Result(nil), m.results[cursor:end]...), end
}
