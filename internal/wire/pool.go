package wire

import "sync"

// Pools for the steady-state hot path. Buffers travel as *[]byte so
// the pool's interface boxing doesn't itself allocate per Put
// (SA6002); callers re-slice to [:0] on Get and hand the same pointer
// back on Put.

// bufCap is the initial capacity of pooled buffers: a 32-result upload
// (≈ 10.5 KB, the largest frame a campaign ME sends) fits without
// growth. A larger frame — a 1024-task lease response, a results page —
// grows its buffer once, and the grown buffer is re-pooled. The cap is
// what every parked ME holds while it executes a batch, so it is sized
// to the common frame, not the largest.
const bufCap = 16 << 10

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, bufCap)
		return &b
	},
}

// GetBuf borrows a zero-length encode/read buffer from the pool.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer to the pool. The caller must not retain any
// slice aliasing it (see Decoder.Results for the payload-aliasing
// hazard this implies).
func PutBuf(b *[]byte) {
	if b == nil || cap(*b) > MaxFrame {
		return // don't cache pathological growth
	}
	bufPool.Put(b)
}

var decPool = sync.Pool{
	New: func() any { return NewDecoder() },
}

// GetDecoder borrows a Decoder (with its warm intern table) from the
// pool.
func GetDecoder() *Decoder { return decPool.Get().(*Decoder) }

// PutDecoder returns a Decoder to the pool. Interned strings persist
// across uses — that is the point: the fleet's vocabulary (ME names,
// kinds, configs) is small and stable, so a recycled decoder decodes
// without allocating.
func PutDecoder(d *Decoder) { decPool.Put(d) }
