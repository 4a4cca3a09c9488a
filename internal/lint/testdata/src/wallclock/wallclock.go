// Package wallclock is golden-test input for the wall-clock-read half
// of the ROAM007 analyzer. It is loaded under a deterministic import
// path, so every wall-clock read and global-rand draw must be flagged
// unless escaped.
package wallclock

import (
	"math/rand"
	"time"
)

func badClock() (time.Time, time.Duration) {
	start := time.Now()             // want `time\.Now in deterministic package`
	time.Sleep(time.Millisecond)    // want `time\.Sleep in deterministic package`
	return start, time.Since(start) // want `time\.Since in deterministic package`
}

func badTimers() {
	<-time.After(time.Millisecond) // want `time\.After in deterministic package`
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
