// Package clockgolden is golden-test input for the ROAM007 analyzer.
// It is loaded under a deterministic import path, so every wall-clock
// read, wall-clock timer, deadline context, and global-rand touch must
// be flagged unless escaped.
package clockgolden

import (
	"context"
	"math/rand"
	"time"
)

// fakeClock mimics the injected clock interface: same-named methods on
// a local type are the sanctioned replacements, not violations.
type fakeClock struct{}

func (fakeClock) NewTimer(d time.Duration) *time.Timer  { return nil }
func (fakeClock) NewTicker(d time.Duration) *time.Timer { return nil }
func (fakeClock) WithTimeout()                          {}

func badContextTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, time.Second) // want `context\.WithTimeout .* bypasses the injected vclock\.Clock`
}

func badContextDeadline(ctx context.Context, t time.Time) (context.Context, context.CancelFunc) {
	return context.WithDeadline(ctx, t) // want `context\.WithDeadline .* bypasses the injected vclock\.Clock`
}

func badNewTimer() *time.Timer {
	return time.NewTimer(time.Second) // want `time\.NewTimer .* bypasses the injected vclock\.Clock`
}

func badNewTicker() *time.Ticker {
	return time.NewTicker(time.Second) // want `time\.NewTicker .* bypasses the injected vclock\.Clock: use Clock\.NewTimer \(a new timer per tick\)$`
}

func badAfterFunc(fn func()) *time.Timer {
	return time.AfterFunc(time.Second, fn) // want `time\.AfterFunc .* bypasses the injected vclock\.Clock: use Clock\.NewTimer$`
}

// False-positive guards: methods on a local type are not the time or
// context packages, and a cancellation context carries no deadline.
func goodClockMethod(c fakeClock) *time.Timer { return c.NewTimer(time.Second) }
func goodTickerMethod(c fakeClock) *time.Timer {
	return c.NewTicker(time.Second)
}
func goodLocalWithTimeout(c fakeClock) { c.WithTimeout() }
func goodWithCancel(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}

// A justified allow: the sanctioned real-time edge.
func allowedTimer() *time.Timer {
	//lint:allow clockpurity golden-test case: real-clock adapter construction
	return time.NewTimer(time.Second)
}

// A bare directive is no waiver.
func bareAllowTimer() *time.Timer {
	//lint:allow clockpurity
	return time.NewTimer(time.Second) // want `time\.NewTimer .* bypasses the injected vclock\.Clock`
}

func badClock() (time.Time, time.Duration) {
	start := time.Now()             // want `time\.Now in deterministic package`
	time.Sleep(time.Millisecond)    // want `time\.Sleep in deterministic package .*: use vclock\.SleepCtx$`
	return start, time.Since(start) // want `time\.Since in deterministic package`
}

func badTimers() {
	<-time.After(time.Millisecond) // want `time\.After in deterministic package .*: use Clock\.NewTimer$`
}

func badGlobalRand() (int, float64) {
	return rand.Intn(10), rand.Float64() // want `global rand\.Intn` `global rand\.Float64`
}

// Explicitly seeded generators are the sanctioned escape into
// math/rand — internal/rng is built on exactly this.
func goodSeededRand() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

// Source64 names a seeded generator exactly as Source does: holding one
// or asserting to it draws nothing; the package-level Uint64 still does.
type goodHolder struct{ src rand.Source64 }

func goodSource64(src rand.Source) (goodHolder, uint64) {
	return goodHolder{src.(rand.Source64)}, rand.Uint64() // want `global rand\.Uint64`
}

// Fixed dates are constants, not clock reads.
func goodFixedDate() time.Time {
	return time.Date(2024, 2, 14, 0, 0, 0, 0, time.UTC)
}

func allowedClock() time.Time {
	//lint:allow clockpurity golden-test case: justified escape hatch suppresses the finding
	return time.Now()
}

func bareAllow() time.Time {
	//lint:allow clockpurity
	return time.Now() // want `time\.Now in deterministic package`
}
