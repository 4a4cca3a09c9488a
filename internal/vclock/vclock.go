// Package vclock is the fleet's injectable clock: one Clock interface
// with two implementations — Real, a thin wrapper over the stdlib used
// by default, and Virtual, a deterministic discrete-event scheduler
// that makes a campaign run as fast as the CPU can drain its event
// queue.
//
// # Why a virtual clock
//
// Campaign wall-clock today is bounded by simulated time executed in
// real goroutine time: netsim-derived task durations (when the fleet
// realizes them), endpoint backoff sleeps and Retry-After waits, chaos
// latency spikes, and straggler watchdogs. None of those waits feeds
// the dataset — the dataset is a pure function of the seed — so a run
// that jumps time instead of sleeping through it must produce
// byte-identical output. That equivalence is proven differentially
// (the TestVirtualTimeEquivalence rows of internal/fleet's proof table);
// this package supplies the clock it runs on.
//
// # The waiter-registry quiescence rule
//
// Virtual never polls and never inspects the runtime. Instead every
// goroutine that may wait on the clock is REGISTERED — Go (or
// Add/Done) mirrors the rng pre-fork rule: register before spawning,
// so there is no window in which the scheduler believes the world is
// idle while a registered-to-be goroutine has not started. Virtual
// time advances only at quiescence: when every registered waiter is
// parked in a clock wait (Sleep, SleepCtx, a timeout context), the
// last goroutine to park advances time to the earliest pending
// deadline and fires the timers due there, inline, under the scheduler
// lock. Real work — CPU, loopback HTTP — runs at full speed with time
// standing still; only when the whole fleet is waiting does the clock
// move, and then it moves in one jump.
//
// The corollary discipline: a registered waiter must block on the
// clock only through the parking entry points (Sleep, SleepCtx, a
// Context from ContextWithTimeout). Selecting on a raw Timer
// channel does not park — the scheduler would wait forever for a
// quiescence that never comes; the stall guard exists to turn exactly
// that bug into a fast failure with a parked-waiter dump instead of a
// hung CI job.
package vclock

import "time"

// Instant is a point on a Clock's monotonic timeline, in nanoseconds
// since the clock's epoch (construction for Real, zero for Virtual).
// Instants from different clocks are not comparable.
type Instant int64

// Add returns the instant d later.
func (i Instant) Add(d time.Duration) Instant { return i + Instant(d) }

// Sub returns the duration i-o.
func (i Instant) Sub(o Instant) time.Duration { return time.Duration(i - o) }

// Duration returns the instant as a duration since the clock epoch.
func (i Instant) Duration() time.Duration { return time.Duration(i) }

// Clock is time as the fleet sees it. The zero-cost default is the
// wall clock (Real); a Virtual clock makes every wait a discrete event.
type Clock interface {
	// Now returns the current instant on the clock's monotonic timeline.
	Now() Instant
	// NewTimer returns a one-shot timer firing d from now, with a
	// time.Timer-like Stop. On a Virtual clock, receiving from its
	// channel does NOT park the caller — use it only from select loops
	// that also make progress, or drive time with Advance in tests.
	NewTimer(d time.Duration) *Timer
}

// Timer is a one-shot clock timer. Like time.Timer, C is buffered with
// capacity 1 and a fire on an un-drained channel is dropped.
type Timer struct {
	// C delivers the fire instant.
	C <-chan Instant

	stop func() bool
}

// Stop cancels the timer; it reports whether the timer was still
// pending. Like time.Timer.Stop it does not drain C.
func (t *Timer) Stop() bool { return t.stop() }
