// Package wallclockscope is golden-test input proving the ROAM007 and
// ROAM003 scope rule: loaded under a NON-deterministic import path
// (the control plane), wall-clock reads and unsorted map iteration are
// legitimate and nothing may be reported.
package wallclockscope

import (
	"math/rand"
	"time"
)

func clockIsFine() (time.Time, time.Duration) {
	start := time.Now()
	time.Sleep(time.Microsecond)
	return start, time.Since(start)
}

func globalRandIsFine() int { return rand.Intn(10) }

func mapOrderIsFine(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
