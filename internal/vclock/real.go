package vclock

import "time"

// Wall is the process-wide Real clock: the default every layer falls
// back to when no clock is injected. Using one shared instance keeps
// Instants from different components comparable.
var Wall = NewReal()

// Real is the wall clock behind the Clock interface: a thin stdlib
// wrapper whose Instants count from the instance's creation. It is the
// one sanctioned place dataset-path code touches real time — which is
// why its few time.* calls carry ROAM007 allow directives instead of
// the packages that use it.
type Real struct {
	epoch time.Time
}

// NewReal returns a wall clock whose epoch is now.
func NewReal() *Real {
	//lint:allow clockpurity the Real clock IS the sanctioned wall-clock implementation; everything above it injects a Clock
	return &Real{epoch: time.Now()}
}

// Now returns the wall time as an offset from the clock's epoch.
func (r *Real) Now() Instant {
	//lint:allow clockpurity see NewReal: Real is the one place wall time is read
	return Instant(time.Since(r.epoch))
}

// NewTimer returns a one-shot wall timer. It is built on time.AfterFunc
// rather than time.NewTimer so the channel can carry Instants without a
// forwarding goroutine per timer.
func (r *Real) NewTimer(d time.Duration) *Timer {
	ch := make(chan Instant, 1)
	//lint:allow clockpurity see NewReal: Real is the one place wall timers are built
	t := time.AfterFunc(d, func() {
		select {
		case ch <- r.Now():
		default: // fire on an un-drained channel is dropped, like time.Timer
		}
	})
	return &Timer{C: ch, stop: t.Stop}
}
