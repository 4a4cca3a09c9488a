package vclock

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestInstantArithmetic(t *testing.T) {
	var i Instant
	i = i.Add(250 * time.Millisecond)
	if i.Duration() != 250*time.Millisecond {
		t.Fatalf("Add: got %v", i.Duration())
	}
	if d := i.Sub(Instant(50 * time.Millisecond)); d != 200*time.Millisecond {
		t.Fatalf("Sub: got %v", d)
	}
}

// Equal deadlines fire in creation order: the heap breaks ties by seq,
// and fireNextLocked drains the whole deadline group in one advance.
func TestEqualDeadlineOrdering(t *testing.T) {
	v := NewVirtual()
	var order []string
	v.mu.Lock()
	for _, name := range []string{"a", "b", "c"} {
		name := name
		v.addTimerLocked(v.now.Add(10*time.Millisecond), func(Instant) {
			order = append(order, name)
		})
	}
	// A later-created timer at an EARLIER deadline still fires first.
	v.addTimerLocked(v.now.Add(5*time.Millisecond), func(Instant) {
		order = append(order, "early")
	})
	v.mu.Unlock()

	v.Advance(10 * time.Millisecond)
	if got := strings.Join(order, ","); got != "early,a,b,c" {
		t.Fatalf("fire order: got %q, want %q", got, "early,a,b,c")
	}
	if v.Now() != Instant(10*time.Millisecond) {
		t.Fatalf("Now: got %v", v.Now().Duration())
	}
}

// The last goroutine to park advances time; staggered sleeps complete
// at exact instants with no manual Advance.
func TestQuiescenceAdvancesSleeps(t *testing.T) {
	v := NewVirtual()
	var (
		mu    sync.Mutex
		wakes []string
		wg    sync.WaitGroup
	)
	record := func(name string) {
		mu.Lock()
		wakes = append(wakes, fmt.Sprintf("%s@%v", name, v.Now().Duration()))
		mu.Unlock()
	}
	wg.Add(2)
	v.Go(func() {
		defer wg.Done()
		v.Sleep(10 * time.Millisecond)
		record("fast")
		v.Sleep(30 * time.Millisecond) // wakes at t=40ms
		record("fast2")
	})
	v.Go(func() {
		defer wg.Done()
		v.Sleep(25 * time.Millisecond)
		record("slow")
	})
	wg.Wait()

	if now := v.Now(); now != Instant(40*time.Millisecond) {
		t.Fatalf("final instant: got %v, want 40ms", now.Duration())
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]bool{"fast@10ms": true, "slow@25ms": true, "fast2@40ms": true}
	if len(wakes) != 3 {
		t.Fatalf("wakes: %v", wakes)
	}
	for _, w := range wakes {
		if !want[w] {
			t.Fatalf("unexpected wake %q in %v", w, wakes)
		}
	}
}

func TestTimerDeliversFireInstant(t *testing.T) {
	v := NewVirtual()
	tm := v.NewTimer(15 * time.Millisecond)
	v.Advance(20 * time.Millisecond)
	select {
	case at := <-tm.C:
		if at != Instant(15*time.Millisecond) {
			t.Fatalf("fire instant: got %v", at.Duration())
		}
	default:
		t.Fatal("timer channel empty after Advance past deadline")
	}
	if v.Now() != Instant(20*time.Millisecond) {
		t.Fatalf("Advance target: got %v", v.Now().Duration())
	}
}

func TestTimerStop(t *testing.T) {
	v := NewVirtual()
	tm := v.NewTimer(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on pending timer: want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop: want false")
	}
	v.Advance(20 * time.Millisecond)
	select {
	case <-tm.C:
		t.Fatal("stopped timer fired")
	default:
	}
}

// Stop hammered from many goroutines while time advances: the -race
// build proves the timer hook is safe, and the heap survives.
func TestTimerStopRace(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	timers := make([]*Timer, 8)
	for i := range timers {
		timers[i] = v.NewTimer(time.Duration(i+1) * time.Millisecond)
	}
	for _, tm := range timers {
		tm := tm
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					tm.Stop()
				}
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			v.Advance(time.Millisecond)
		}
	}()
	wg.Wait()
	v.Advance(time.Second)
	if n := len(v.timers); n != 0 {
		t.Fatalf("timers left in heap after final advance: %d", n)
	}
}

// Parking without registering is the leak the registry exists to catch:
// it must panic with the pre-register-then-spawn pointer, not corrupt
// the quiescence accounting.
func TestUnregisteredParkPanics(t *testing.T) {
	v := NewVirtual()
	got := make(chan string, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				got <- fmt.Sprint(r)
			}
		}()
		v.Sleep(time.Millisecond)
		got <- ""
	}()
	select {
	case msg := <-got:
		if !strings.Contains(msg, "without registering") {
			t.Fatalf("want unregistered-park panic, got %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unregistered park neither panicked nor returned")
	}
}

func TestWaitersAccounting(t *testing.T) {
	v := NewVirtual()
	v.Add(2)
	if reg, parked := v.Waiters(); reg != 2 || parked != 0 {
		t.Fatalf("after Add(2): reg=%d parked=%d", reg, parked)
	}
	v.Done()
	v.Done()
	if reg, _ := v.Waiters(); reg != 0 {
		t.Fatalf("after Done x2: reg=%d", reg)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unbalanced Done: want panic")
			}
		}()
		v.Done()
	}()
}

// All waiters parked with nothing on the heap is a deadlock: the
// goroutine that completed quiescence must panic with a dump naming the
// parked waiters.
func TestDeadlockDumpAndPanic(t *testing.T) {
	t.Run("default-panics", func(t *testing.T) {
		v := NewVirtual()
		got := make(chan string, 1)
		p := &parker{what: "stuck-op", until: -1, ch: make(chan struct{}, 1)}
		v.Add(1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					got <- fmt.Sprint(r)
				}
			}()
			defer v.Done()
			v.mu.Lock()
			v.parkLocked(p) // completes quiescence with an empty heap
			v.mu.Unlock()
			<-p.ch
		}()
		select {
		case msg := <-got:
			for _, want := range []string{"deadlock", "stuck-op", "1 registered waiter(s)"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("deadlock panic missing %q:\n%s", want, msg)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock default neither panicked nor returned")
		}
	})
}

// A registered waiter blocked OUTSIDE the clock freezes the timeline
// without tripping the deadlock check; the stall guard catches it on
// real time and reports the same dump.
func TestStallGuard(t *testing.T) {
	v := NewVirtual()
	release := make(chan struct{})
	v.Add(1)
	go func() {
		defer v.Done()
		<-release // blocked off-clock: registered but never parked
	}()
	dumps := make(chan string, 1)
	stop := v.StallGuard(20*time.Millisecond, func(dump string) { dumps <- dump })
	defer stop()
	select {
	case dump := <-dumps:
		if !strings.Contains(dump, "stall") {
			t.Fatalf("dump missing kind: %s", dump)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stall guard never fired")
	}
	close(release)
}

func TestStallGuardSeesProgress(t *testing.T) {
	v := NewVirtual()
	fired := make(chan string, 1)
	stop := v.StallGuard(50*time.Millisecond, func(dump string) { fired <- dump })
	defer stop()
	var wg sync.WaitGroup
	wg.Add(1)
	v.Go(func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			v.Sleep(time.Second) // constant clock activity, zero real waiting
			time.Sleep(10 * time.Millisecond)
		}
	})
	wg.Wait()
	select {
	case dump := <-fired:
		t.Fatalf("stall guard fired on a progressing clock:\n%s", dump)
	default:
	}
}

func TestSleepCtxForeignCancel(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	hold := make(chan struct{})
	v.Add(2) // sleeper + a timeline pin that never parks
	go func() {
		defer v.Done()
		errs <- SleepCtx(v, ctx, time.Hour)
	}()
	go func() {
		defer v.Done()
		<-hold // off-clock: quiescence is impossible, so time stands still
	}()
	defer close(hold)
	// Let the sleeper park, then cancel: the wake must not wait for the
	// hour of virtual time.
	for {
		if _, parked := v.Waiters(); parked == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not wake the sleeper")
	}
	if v.Now() >= Instant(time.Hour) {
		t.Fatalf("cancel advanced time to %v", v.Now().Duration())
	}
}

// A virtual timeout context expires at its exact instant and reports
// DeadlineExceeded, so watchdog-kill detection works unchanged.
func TestContextWithTimeoutVirtualDeadline(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := ContextWithTimeout(context.Background(), v, 30*time.Millisecond)
	defer cancel()
	errs := make(chan error, 1)
	v.Go(func() {
		errs <- SleepCtx(v, ctx, time.Hour)
	})
	err := <-errs
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err: %v", err)
	}
	if v.Now() != Instant(30*time.Millisecond) {
		t.Fatalf("deadline instant: got %v, want 30ms", v.Now().Duration())
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err: %v", ctx.Err())
	}
}

// Sleep deadline exactly equal to the watchdog deadline: both fire in
// the same advance, and the outcome is deterministically the timeout
// (wakes are idempotent; the context settles in the same event group).
func TestContextWithTimeoutEqualDeadlineTie(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := ContextWithTimeout(context.Background(), v, 30*time.Millisecond)
	defer cancel()
	errs := make(chan error, 1)
	v.Go(func() {
		errs <- SleepCtx(v, ctx, 30*time.Millisecond)
	})
	if err := <-errs; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("equal-deadline tie: got %v, want DeadlineExceeded", err)
	}

	// One nanosecond of slack and the sleep wins.
	ctx2, cancel2 := ContextWithTimeout(context.Background(), v, 30*time.Millisecond)
	defer cancel2()
	v.Go(func() {
		errs <- SleepCtx(v, ctx2, 30*time.Millisecond-time.Nanosecond)
	})
	if err := <-errs; err != nil {
		t.Fatalf("shorter sleep under live ctx: got %v", err)
	}
}

func TestContextWithTimeoutCancelAndParent(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := ContextWithTimeout(context.Background(), v, time.Hour)
	cancel()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("after cancel: %v", ctx.Err())
	}

	parent, pcancel := context.WithCancel(context.Background())
	child, ccancel := ContextWithTimeout(parent, v, time.Hour)
	defer ccancel()
	pcancel()
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("parent cancel did not settle the virtual child")
	}
	if !errors.Is(child.Err(), context.Canceled) {
		t.Fatalf("child err: %v", child.Err())
	}
	if _, ok := child.(*Ctx); !ok {
		t.Fatalf("virtual clock returned %T", child)
	}
}

func TestContextWithTimeoutRealClock(t *testing.T) {
	ctx, cancel := ContextWithTimeout(context.Background(), Wall, 10*time.Millisecond)
	defer cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("real-clock timeout never fired")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("err: %v", ctx.Err())
	}
}

func TestRealClockBasics(t *testing.T) {
	r := NewReal()
	start := r.Now()
	if err := SleepCtx(r, context.Background(), 5*time.Millisecond); err != nil {
		t.Fatalf("SleepCtx on real clock: %v", err)
	}
	if elapsed := r.Now().Sub(start); elapsed < 5*time.Millisecond {
		t.Fatalf("SleepCtx too short: %v", elapsed)
	}
	tm := r.NewTimer(time.Millisecond)
	select {
	case <-tm.C:
	case <-time.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
}

// The advance sequence is a pure function of the sleep schedule: the
// same mix of sleepers lands on the same final instant every run.
func TestFinalInstantDeterminism(t *testing.T) {
	run := func() Instant {
		v := NewVirtual()
		var wg sync.WaitGroup
		v.Add(32) // whole cohort before any spawn — the Go doc's rule
		for i := 0; i < 32; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer v.Done()
				for j := 0; j < 10; j++ {
					v.Sleep(time.Duration((i*7+j*13)%29+1) * time.Millisecond)
				}
			}()
		}
		wg.Wait()
		return v.Now()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: final instant %v != %v", i, got.Duration(), first.Duration())
		}
	}
}

// Stats counts quiescence jumps, parking waits and timers; a manual
// Advance is a test driver's doing, not a jump.
func TestStatsCountsSchedulerWork(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	cohort := [][]time.Duration{
		{10 * time.Millisecond, 30 * time.Millisecond}, // wakes at 10 and 40 ms
		{10 * time.Millisecond, 15 * time.Millisecond}, // wakes at 10 and 25 ms
	}
	v.Add(len(cohort))
	wg.Add(len(cohort))
	for _, naps := range cohort {
		naps := naps
		go func() {
			defer wg.Done()
			defer v.Done()
			for _, d := range naps {
				v.Sleep(d)
			}
		}()
	}
	wg.Wait()
	// Four sleeps, three distinct deadlines: the 10 ms jump wakes both.
	if got, want := v.Stats(), (Stats{Advances: 3, Parks: 4, Timers: 4}); got != want {
		t.Errorf("after the cohort: %+v, want %+v", got, want)
	}
	v.NewTimer(time.Second)
	v.Advance(2 * time.Second)
	if got, want := v.Stats(), (Stats{Advances: 3, Parks: 4, Timers: 5}); got != want {
		t.Errorf("after a manual Advance: %+v, want %+v", got, want)
	}
}
