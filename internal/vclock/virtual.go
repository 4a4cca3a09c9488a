package vclock

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event clock. Time never flows;
// it jumps, and only at quiescence — see the package comment for the
// waiter-registry rule. All state is guarded by mu; timer fire
// callbacks run with mu held and must not block.
type Virtual struct {
	mu      sync.Mutex
	now     Instant         // guarded by mu
	timers  timerHeap       // guarded by mu
	seq     uint64          // guarded by mu; creation order breaks deadline ties
	waiters int             // guarded by mu; registered via Go/Add
	parked  map[*parker]int // guarded by mu; value is the park sequence

	stats Stats // guarded by mu

	onDeadlock func(string) // guarded by mu; nil = panic

	// stall-guard state (real time, never feeds the virtual timeline)
	activity  uint64 // guarded by mu; bumped on every park/wake/advance
	lastSeen  uint64 // guarded by mu; activity at the previous guard check
	stallStop func() bool
}

// parker is one goroutine blocked in a parking wait. ch has capacity 1
// so a wake never blocks the scheduler; multiple wake sources (timer,
// context) are idempotent because the parker is removed from the
// registry on the first one.
type parker struct {
	what  string  // "sleep", "sleep-ctx", ... for the deadlock dump
	until Instant // the deadline being waited for (-1: none, context-only)
	ch    chan struct{}
}

// vtimer is one pending event. fire runs with the scheduler lock held.
type vtimer struct {
	when Instant
	seq  uint64
	idx  int // heap index; -1 once popped or stopped
	fire func(now Instant)
}

// NewVirtual returns a virtual clock at instant 0 with no waiters.
func NewVirtual() *Virtual {
	return &Virtual{parked: map[*parker]int{}}
}

// Now returns the current virtual instant.
func (v *Virtual) Now() Instant {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Go registers one waiter and then spawns fn — pre-register, then
// spawn, exactly like the rng pre-fork rule: the registration must be
// visible before the goroutine exists, or a quiescence check in the gap
// would advance time without it.
//
// Go is safe but only locally so: when starting a COHORT of waiters
// whose relative timing matters, call Add(n) for the whole cohort
// before spawning any of them — with per-Go registration an early
// waiter can park, complete quiescence, and advance time before the
// later waiters exist, making the advance sequence depend on goroutine
// scheduling.
func (v *Virtual) Go(fn func()) {
	v.Add(1)
	go func() {
		defer v.Done()
		fn()
	}()
}

// Add registers n waiters the scheduler must see parked before it may
// advance time. Call it BEFORE spawning the goroutines it accounts for.
func (v *Virtual) Add(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.waiters += n
	if v.waiters < 0 {
		panic("vclock: negative waiter count (unbalanced Add/Done)")
	}
}

// Done unregisters the calling waiter. If the remaining waiters are all
// parked, the departure itself is the quiescence that advances time.
func (v *Virtual) Done() {
	v.mu.Lock()
	v.waiters--
	if v.waiters < 0 {
		v.mu.Unlock()
		panic("vclock: negative waiter count (unbalanced Add/Done)")
	}
	v.activity++
	v.maybeAdvanceLocked()
	v.mu.Unlock()
}

// Stats counts the scheduler's work since NewVirtual; with the waiters
// registered as one cohort it is a pure function of (seed, plan).
type Stats struct {
	Advances uint64 // quiescence jumps, each a serial step of the run (manual Advance calls excluded)
	Parks    uint64 // parking waits entered (Sleep, SleepCtx)
	Timers   uint64 // timers created, parking waits' included
}

// Stats returns the scheduler's counters.
func (v *Virtual) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// Waiters reports the registered and parked waiter counts.
func (v *Virtual) Waiters() (registered, parked int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.waiters, len(v.parked)
}

// Sleep parks the calling waiter for d of virtual time. d <= 0 returns
// immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	p := &parker{what: "sleep", ch: make(chan struct{}, 1)}
	p.until = v.now.Add(d)
	v.addTimerLocked(p.until, func(Instant) { v.wakeLocked(p) })
	v.parkLocked(p)
	v.mu.Unlock()
	<-p.ch
}

// After returns a channel delivering the fire instant d from now.
// Receiving from it does not park the caller (see the Clock docs).
func (v *Virtual) After(d time.Duration) <-chan Instant {
	ch := make(chan Instant, 1)
	v.mu.Lock()
	v.addTimerLocked(v.now.Add(d), func(now Instant) { ch <- now })
	v.mu.Unlock()
	return ch
}

// NewTimer returns a one-shot virtual timer.
func (v *Virtual) NewTimer(d time.Duration) *Timer {
	ch := make(chan Instant, 1)
	v.mu.Lock()
	t := v.addTimerLocked(v.now.Add(d), func(now Instant) {
		select {
		case ch <- now:
		default:
		}
	})
	v.mu.Unlock()
	return &Timer{
		C: ch,
		stop: func() bool {
			v.mu.Lock()
			defer v.mu.Unlock()
			return v.stopTimerLocked(t)
		},
		reset: func(d time.Duration) bool {
			v.mu.Lock()
			defer v.mu.Unlock()
			was := v.stopTimerLocked(t)
			t.when = v.now.Add(d)
			t.seq = v.nextSeqLocked()
			heap.Push(&v.timers, t)
			return was
		},
	}
}

// NewTicker returns a repeating virtual ticker.
func (v *Virtual) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker period")
	}
	ch := make(chan Instant, 1)
	v.mu.Lock()
	tk := &vticker{v: v, ch: ch, period: d}
	tk.armLocked(v.now.Add(d))
	v.mu.Unlock()
	return &Ticker{
		C: ch,
		stop: func() {
			v.mu.Lock()
			defer v.mu.Unlock()
			if tk.t != nil {
				v.stopTimerLocked(tk.t)
				tk.t = nil
			}
		},
		reset: func(nd time.Duration) {
			if nd <= 0 {
				panic("vclock: non-positive ticker period")
			}
			v.mu.Lock()
			defer v.mu.Unlock()
			if tk.t != nil {
				v.stopTimerLocked(tk.t)
			}
			tk.period = nd
			tk.armLocked(v.now.Add(nd))
		},
	}
}

type vticker struct {
	v      *Virtual
	ch     chan Instant
	period time.Duration
	t      *vtimer // guarded by v.mu
}

// armLocked schedules the next tick; called with v.mu held.
func (tk *vticker) armLocked(when Instant) {
	tk.t = tk.v.addTimerLocked(when, func(now Instant) {
		select {
		case tk.ch <- now:
		default:
		}
		tk.armLocked(now.Add(tk.period))
	})
}

// Advance manually moves time forward by d, firing everything due on
// the way, regardless of waiter state. It is the test-driver entry
// point; fleet code never calls it — quiescence advances time there.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	target := v.now.Add(d)
	for len(v.timers) > 0 && v.timers[0].when <= target {
		v.fireNextLocked()
	}
	if target > v.now {
		v.now = target
	}
	v.activity++
}

// OnDeadlock installs fn as the all-parked-no-timers handler (default:
// panic). The scheduler calls it with the parked-waiter dump; tests
// install a capturing handler, CI wants the panic.
func (v *Virtual) OnDeadlock(fn func(dump string)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.onDeadlock = fn
}

// StallGuard arms a real-time watchdog against the OTHER failure mode,
// the one quiescence cannot see: a registered waiter blocked outside
// the clock (a raw channel receive, a lost HTTP response) while the
// rest of the fleet is parked. No virtual state changes for interval
// after interval means nobody is making progress; onStall (nil =
// panic) gets the same parked-waiter dump a deadlock would. The guard
// reads no virtual time and fires on a stdlib timer, so it cannot
// perturb the event schedule; Stop it (via the returned func) before
// discarding the clock.
func (v *Virtual) StallGuard(interval time.Duration, onStall func(dump string)) (stop func() bool) {
	if onStall == nil {
		onStall = func(dump string) { panic("vclock: stalled: " + dump) }
	}
	var t *time.Timer
	//lint:allow clockpurity the stall guard deliberately runs on the wall clock so it can fire while virtual time is stuck
	t = time.AfterFunc(interval, func() {
		v.mu.Lock()
		stalled := v.waiters > 0 && v.activity == v.lastSeen
		v.lastSeen = v.activity
		dump := v.dumpLocked("stall")
		v.mu.Unlock()
		if stalled {
			onStall(dump)
			return
		}
		t.Reset(interval)
	})
	v.mu.Lock()
	v.stallStop = t.Stop
	v.mu.Unlock()
	return t.Stop
}

// --- internals (all called with v.mu held) ---

func (v *Virtual) nextSeqLocked() uint64 {
	v.seq++
	return v.seq
}

func (v *Virtual) addTimerLocked(when Instant, fire func(Instant)) *vtimer {
	if when < v.now {
		when = v.now
	}
	t := &vtimer{when: when, seq: v.nextSeqLocked(), fire: fire}
	v.stats.Timers++
	heap.Push(&v.timers, t)
	return t
}

func (v *Virtual) stopTimerLocked(t *vtimer) bool {
	if t.idx < 0 {
		return false
	}
	heap.Remove(&v.timers, t.idx)
	return true
}

// parkLocked marks the caller parked and, if that completes quiescence,
// advances time inline — the last goroutine to park is the scheduler.
func (v *Virtual) parkLocked(p *parker) {
	v.parked[p] = int(v.nextSeqLocked())
	v.stats.Parks++
	v.activity++
	if len(v.parked) > v.waiters {
		dump := v.dumpLocked("unregistered park")
		// Release the lock before panicking: the unwinding goroutine's
		// deferred Done would otherwise deadlock on v.mu and turn a
		// fail-fast report into a hang.
		v.mu.Unlock()
		panic("vclock: a goroutine parked without registering (Go/Add before spawning — see the package comment)\n" + dump)
	}
	v.maybeAdvanceLocked()
}

// wakeLocked releases p if it is still parked. Idempotent: the timer
// and a context cancellation may both fire in one advance.
func (v *Virtual) wakeLocked(p *parker) {
	if _, ok := v.parked[p]; !ok {
		return
	}
	delete(v.parked, p)
	v.activity++
	p.ch <- struct{}{}
}

// maybeAdvanceLocked is the quiescence check: with every registered
// waiter parked, jump to the earliest pending deadline and fire
// everything due there. Firing wakes parkers (breaking quiescence, so
// the loop exits) or feeds bare channels (quiescence holds, keep
// jumping). All parked with nothing pending is a deadlock.
func (v *Virtual) maybeAdvanceLocked() {
	for v.waiters > 0 && len(v.parked) == v.waiters {
		if len(v.timers) == 0 {
			dump := v.dumpLocked("deadlock")
			if v.onDeadlock != nil {
				fn := v.onDeadlock
				v.onDeadlock = nil // fire once; the handler decides what's next
				v.mu.Unlock()
				fn(dump)
				v.mu.Lock()
				return
			}
			// Unlock before panicking so deferred Done calls on the
			// unwinding stack don't deadlock on v.mu (see parkLocked).
			v.mu.Unlock()
			panic("vclock: deadlock: every registered waiter is parked and no timer is pending\n" + dump)
		}
		v.fireNextLocked()
		v.stats.Advances++
		v.activity++
	}
}

// fireNextLocked pops every timer due at the earliest deadline and
// fires them in creation order (the heap orders equal deadlines by
// seq), advancing now to that deadline.
func (v *Virtual) fireNextLocked() {
	when := v.timers[0].when
	if when > v.now {
		v.now = when
	}
	for len(v.timers) > 0 && v.timers[0].when == when {
		t := heap.Pop(&v.timers).(*vtimer)
		t.fire(v.now)
	}
}

// dumpLocked renders the scheduler state for deadlock/stall reports.
func (v *Virtual) dumpLocked(kind string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vclock %s at t=%s: %d registered waiter(s), %d parked, %d pending timer(s)\n",
		kind, v.now.Duration(), v.waiters, len(v.parked), len(v.timers))
	parks := make([]*parker, 0, len(v.parked))
	for p := range v.parked {
		parks = append(parks, p)
	}
	sort.Slice(parks, func(i, j int) bool { return v.parked[parks[i]] < v.parked[parks[j]] })
	for _, p := range parks {
		if p.until < 0 {
			fmt.Fprintf(&b, "  parked: %s (no deadline)\n", p.what)
			continue
		}
		fmt.Fprintf(&b, "  parked: %s until t=%s\n", p.what, p.until.Duration())
	}
	next := append(timerHeap(nil), v.timers...)
	sort.Slice(next, func(i, j int) bool { return next[i].less(next[j]) })
	for i, t := range next {
		if i == 8 {
			fmt.Fprintf(&b, "  ... %d more timer(s)\n", len(next)-i)
			break
		}
		fmt.Fprintf(&b, "  timer #%d at t=%s\n", t.seq, t.when.Duration())
	}
	return b.String()
}

// --- timer heap ---

type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	return h[i].less(h[j])
}
func (t *vtimer) less(o *vtimer) bool {
	if t.when != o.when {
		return t.when < o.when
	}
	return t.seq < o.seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*vtimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.idx = -1
	*h = old[:n-1]
	return t
}
