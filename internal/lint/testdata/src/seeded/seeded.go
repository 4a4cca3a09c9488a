// Package seeded holds one deliberate violation of each self-contained
// contract. The driver test copies it into a scratch module under a
// deterministic import path and asserts the roamvet binary exits
// nonzero and names every code.
package seeded

import (
	"context"
	"io"
	"net/http"
	"time"
)

func seededWallclockRead() time.Time {
	return time.Now()
}

func seededClockpurity(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, time.Second)
}

// One reasoned waiver, so the driver test can assert the -allows
// inventory reports it with its reason.
func allowedWallclockRead() time.Time {
	//lint:allow clockpurity seeded scratch module: exercises the allow inventory
	return time.Now()
}

func seededMaporder(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func seededBodyhygiene(resp *http.Response) ([]byte, error) {
	return io.ReadAll(resp.Body)
}
