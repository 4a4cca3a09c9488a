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
//
// Results land in fixed chunks of sinkChunk, so retaining one never
// copies or re-zeroes those before it, as regrowing one slice would.
type MemorySink struct {
	mu     sync.RWMutex
	chunks [][]Result // all full but the last, each of capacity sinkChunk
	n      int        // results retained
}

// sinkChunk is 256 results of 128 bytes: a chunk is the largest object
// the allocator still serves from a size class.
const sinkChunk = 256

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Append implements Sink.
func (m *MemorySink) Append(batch []Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(batch) > 0 {
		if len(m.chunks) == 0 || len(m.chunks[len(m.chunks)-1]) == sinkChunk {
			m.chunks = append(m.chunks, make([]Result, 0, sinkChunk))
		}
		last := &m.chunks[len(m.chunks)-1]
		k := min(len(batch), sinkChunk-len(*last))
		*last = append(*last, batch[:k]...)
		batch = batch[k:]
		m.n += k
	}
}

// Len returns the number of retained results, which is also the cursor
// one past the newest result.
func (m *MemorySink) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.n
}

// Since implements CursorSink: a copy of the results at positions
// >= cursor — everything retained when limit <= 0, else at most limit of
// them, so a paged read copies each result once rather than the whole
// tail per page — and the cursor one past the last of them.
func (m *MemorySink) Since(cursor, limit int) ([]Result, int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cursor = max(0, min(cursor, m.n))
	end := m.n
	if limit > 0 && end-cursor > limit {
		end = cursor + limit
	}
	if end == cursor {
		return nil, end
	}
	out := make([]Result, 0, end-cursor)
	for at := cursor; at < end; {
		c := m.chunks[at/sinkChunk][at%sinkChunk:]
		c = c[:min(len(c), end-at)]
		out = append(out, c...)
		at += len(c)
	}
	return out, end
}
