// Package allowhygiene is golden-test input for waiver hygiene
// (ROAM000). It is loaded under a deterministic import path with only
// maporder selected: a waiver naming no analyzer and a maporder waiver
// that suppresses nothing are findings; a live maporder waiver and a
// waiver for an analyzer outside the selection are not.
package allowhygiene

import (
	"sort"
	"time"
)

func unknownAnalyzer() int {
	//lint:allow nosuch golden-test case: no such analyzer // want `^ROAM000 .*unknown analyzer "nosuch"`
	return 1
}

func retiredAnalyzer() int {
	//lint:allow wallclock golden-test case: ROAM001 is retired // want `^ROAM000 .*unknown analyzer "wallclock"`
	return 2
}

func staleWaiver(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		//lint:allow maporder golden-test case: the sort below already makes this safe // want `^ROAM000 .*maporder suppresses nothing`
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func liveWaiver(m map[string]int) []string {
	var keys []string
	for k := range m {
		//lint:allow maporder golden-test case: the consumer treats the result as a set
		keys = append(keys, k)
	}
	return keys
}

func unselectedAnalyzer() time.Time {
	//lint:allow clockpurity golden-test case: clockpurity is not selected, so this waiver is not judged
	return time.Now()
}
