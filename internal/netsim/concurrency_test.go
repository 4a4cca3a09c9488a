package netsim

import (
	"reflect"
	"sync"
	"testing"

	"roamsim/internal/rng"
)

// TestConcurrentRouteAndRTT hammers the frozen query surface from many
// goroutines. Run under -race this is the regression test for the
// lock-light routing fast path: cache hits take only shard read-locks,
// misses single-flight, and RTT sampling must not race with either.
func TestConcurrentRouteAndRTT(t *testing.T) {
	net := tieGraph(rng.New(11).Fork("concurrency"), 120)
	net.Freeze()

	const goroutines = 16
	const iters = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(int64(g)) // per-goroutine stream, per the rng contract
			for i := 0; i < iters; i++ {
				a := NodeID(src.Intn(net.NumNodes()))
				b := NodeID(src.Intn(net.NumNodes()))
				if a == b {
					continue
				}
				p, err := net.Route(a, b)
				if err != nil {
					continue // valley-free dead ends are expected
				}
				if rtt := net.RTTms(p, src); rtt <= 0 {
					t.Errorf("non-positive RTT %f on %d->%d", rtt, a, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// The cache must have converged to one canonical *Path per pair:
	// repeated queries return the identical pointer.
	for i := 0; i < 50; i++ {
		a, b := NodeID(i%net.NumNodes()), NodeID((i*7+1)%net.NumNodes())
		if a == b {
			continue
		}
		p1, err1 := net.Route(a, b)
		p2, err2 := net.Route(a, b)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("route %d->%d: inconsistent errors %v vs %v", a, b, err1, err2)
		}
		if err1 == nil && p1 != p2 {
			t.Fatalf("route %d->%d: cache returned distinct paths", a, b)
		}
	}
}

// TestConcurrentRoutesMatchSerial checks that racing goroutines observe
// exactly the paths a serial computation produces — the single-flight
// cache must never publish a partially built or divergent path.
func TestConcurrentRoutesMatchSerial(t *testing.T) {
	build := func() *Network {
		return tieGraph(rng.New(23).Fork("match"), 80)
	}
	serial := build()
	serial.Freeze()
	concurrent := build()
	concurrent.Freeze()

	type pair struct{ a, b NodeID }
	var pairs []pair
	for a := 0; a < 80; a += 2 {
		for b := 1; b < 80; b += 3 {
			if NodeID(a) != NodeID(b) {
				pairs = append(pairs, pair{NodeID(a), NodeID(b)})
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(pairs); i += 8 {
				concurrent.Route(pairs[i].a, pairs[i].b)
			}
		}(g)
	}
	wg.Wait()

	for _, pr := range pairs {
		want, wantErr := serial.Route(pr.a, pr.b)
		got, gotErr := concurrent.Route(pr.a, pr.b)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("route %d->%d: serial err=%v concurrent err=%v", pr.a, pr.b, wantErr, gotErr)
		}
		if wantErr == nil && !samePath(want, got) {
			t.Fatalf("route %d->%d: concurrent path diverges from serial", pr.a, pr.b)
		}
	}
}

// TestFreezeContract pins the build/query phase split: every mutation
// panics after Freeze, and queries stay available.
func TestFreezeContract(t *testing.T) {
	net := New()
	a := net.AddNode(Node{Name: "a"})
	b := net.AddNode(Node{Name: "b"})
	net.Connect(a, b, Link{DelayMs: 1})
	if net.Frozen() {
		t.Fatal("network frozen before Freeze")
	}
	net.Freeze()
	if !net.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}

	for name, mutate := range map[string]func(){
		"AddNode":      func() { net.AddNode(Node{Name: "c"}) },
		"Connect":      func() { net.Connect(a, b, Link{DelayMs: 2}) },
		"SetTransitAS": func() { net.SetTransitAS(42) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Freeze did not panic", name)
				}
			}()
			mutate()
		}()
	}

	// Queries stay available.
	if _, err := net.Route(a, b); err != nil {
		t.Fatalf("Route after Freeze: %v", err)
	}
	if got := net.NumNodes(); got != 2 {
		t.Fatalf("NumNodes = %d, want 2", got)
	}
}

// TestSingleFlightSharesComputation checks that many goroutines asking
// for the same missing route all get the identical cached *Path.
func TestSingleFlightSharesComputation(t *testing.T) {
	net := tieGraph(rng.New(31).Fork("flight"), 100)
	net.Freeze()

	const goroutines = 32
	paths := make([]*Path, goroutines)
	errs := make([]error, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			paths[g], errs[g] = net.Route(0, 99)
		}(g)
	}
	start.Done()
	wg.Wait()

	if errs[0] != nil {
		t.Fatalf("route failed: %v", errs[0])
	}
	for g := 1; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if paths[g] != paths[0] {
			t.Fatalf("goroutine %d got a different *Path than goroutine 0", g)
		}
	}
}

// TestConcurrentRouteViaSharesOnePath races many goroutines on the same
// missing composed route: every one of them must come back with the
// identical *Path (the first store wins), equal to the concatenation of
// the two legs, and the lookups must show up in RouteCacheStats.
func TestConcurrentRouteViaSharesOnePath(t *testing.T) {
	net := tieGraph(rng.New(37).Fork("via"), 100)
	net.Freeze()
	first, err := net.Route(0, 50)
	if err != nil {
		t.Fatalf("no route 0->50 in this graph: %v", err)
	}
	second, err := net.Route(50, 99)
	if err != nil {
		t.Fatalf("no route 50->99 in this graph: %v", err)
	}
	want, err := ConcatPaths(first, second)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0, _ := net.RouteCacheStats()

	const goroutines = 32
	paths := make([]*Path, goroutines)
	errs := make([]error, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			paths[g], errs[g] = net.RouteVia(0, 50, 99)
		}(g)
	}
	start.Done()
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if paths[g] != paths[0] {
			t.Fatalf("goroutine %d got a different *Path than goroutine 0", g)
		}
	}
	if !reflect.DeepEqual(paths[0], want) {
		t.Error("composed route differs from ConcatPaths of its legs")
	}
	warm, _ := net.RouteVia(0, 50, 99)
	if warm != paths[0] {
		t.Error("warm RouteVia returned a different *Path")
	}
	hits, misses, _ := net.RouteCacheStats()
	if misses == misses0 || hits == hits0 {
		t.Errorf("RouteCacheStats did not move: hits %d->%d, misses %d->%d", hits0, hits, misses0, misses)
	}
	if _, err := net.RouteVia(0, 50, NodeID(net.NumNodes())); err == nil {
		t.Error("RouteVia to a node outside the network must fail")
	}
}
