package amigo_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/rng"
	"roamsim/internal/shard"
	"roamsim/internal/wire"
)

// The reference model of the ME protocol: what a control plane answers to
// each schedule, lease and upload, written as plainly as the semantics
// allow, and checked operation by operation against the real
// Server — in process (DirectTransport) and over HTTP through a 4-shard
// gateway.

// model is the control plane's specification. Each control shard owns its
// MEs, its ID allocator and its idempotency keys; a single Server is one
// shard.
type model struct {
	spoolCap int
	shardOf  func(me string) int
	lastID   []int // per shard: the highest task ID assigned or reserved
	mes      map[string]*modelME
	keys     map[string]bool  // accepted idempotency keys, as "shard/key"
	results  [][]amigo.Result // per shard: the accepted results, in order
	seen     map[string]int   // events the sequences exercised (coverage)
}

// modelME is one ME's state, created by its first schedule: the same one
// schedule and two cursors the Server keeps (meState). The schedule never
// reorders: a lease hands out sched[acked:], an ack retires a prefix of
// what was sent, and a redelivery rewinds both cursors. So the done list
// is sched[:acked] and the outstanding deliveries are sched[acked:sent].
type modelME struct {
	sched       []amigo.Task
	acked, sent int
	vitals      amigo.Vitals
}

// op is one ME-facing operation, every value concrete. An "upload+lease"
// is an upload carrying a lease: Key and Results are the upload's, ME,
// Max, Ack and Vitals the lease's. A "schedule-block" is one operator
// request scheduling several MEs, each a "schedule" op in Block.
type op struct {
	Kind      string // "schedule", "schedule-block", "lease", "upload" or "upload+lease"
	ME        string // the upload's ME is its first result's
	Tasks     []amigo.Task
	Max       int
	Ack       int
	Vitals    amigo.Vitals
	Redeliver bool
	Key       string
	Results   []amigo.Result
	Block     []op
}

func (o op) String() string {
	switch o.Kind {
	case "schedule":
		return fmt.Sprintf("schedule %s %d tasks %v", o.ME, len(o.Tasks), taskIDs(o.Tasks))
	case "schedule-block":
		return fmt.Sprintf("schedule-block %v", o.Block)
	case "lease":
		return fmt.Sprintf("lease %s max %d ack %d vitals %v redeliver %v", o.ME, o.Max, o.Ack, !o.Vitals.IsZero(), o.Redeliver)
	case "upload":
		return fmt.Sprintf("upload %s key %q ids %v", o.Results[0].ME, o.Key, resultIDs(o.Results))
	case "upload+lease":
		return fmt.Sprintf("upload %s key %q ids %v + lease %s max %d ack %d vitals %v",
			o.Results[0].ME, o.Key, resultIDs(o.Results), o.ME, o.Max, o.Ack, !o.Vitals.IsZero())
	}
	return o.Kind + " " + o.ME
}

// reply is what an operation answered: a lease's tasks or a schedule's
// tasks under their assigned IDs, whether a lease was drained (its tasks
// are all the ME has left), and the error class.
type reply struct {
	Tasks   []amigo.Task
	Drained bool
	Class   string // "ok", "unknown-me", "busy" or "bad-request"
}

// stamp is every server's clock: results compare whole, Uploaded included.
var stamp = time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)

func newModel(spoolCap, shards int, shardOf func(string) int) *model {
	return &model{
		spoolCap: spoolCap, shardOf: shardOf,
		lastID: make([]int, shards), results: make([][]amigo.Result, shards),
		mes: map[string]*modelME{}, keys: map[string]bool{}, seen: map[string]int{},
	}
}

func (m *model) apply(o op) reply {
	st := m.mes[o.ME]
	switch o.Kind {
	case "schedule":
		if st == nil {
			st = &modelME{}
			m.mes[o.ME] = st
		}
		sh := m.shardOf(o.ME)
		tasks := slices.Clone(o.Tasks)
		for i := range tasks {
			if tasks[i].ID > 0 {
				m.lastID[sh] = max(m.lastID[sh], tasks[i].ID)
			} else {
				m.lastID[sh]++
				tasks[i].ID = m.lastID[sh]
			}
		}
		st.sched = append(st.sched, tasks...)
		return reply{Tasks: tasks, Class: "ok"}
	case "schedule-block":
		// Every frame is scheduled as its own schedule, in body order, and
		// the reply is their replies in that order.
		m.seen["schedule block"]++
		var tasks []amigo.Task
		for _, f := range o.Block {
			tasks = append(tasks, m.apply(f).Tasks...)
		}
		return reply{Tasks: tasks, Class: "ok"}
	case "upload+lease":
		// The upload first, unless the lease names another ME than the one
		// the batch is routed by; then the lease, whose failure fails
		// nothing: the results stay accepted and no lease is answered.
		upload, lease := o, o
		upload.Kind, lease.Kind = "upload", "lease"
		switch {
		case len(o.Results) > m.spoolCap: // refused as busy before anything else
		case o.ME != o.Results[0].ME:
			m.seen["lease of another ME"]++
			return reply{Class: "bad-request"}
		case st == nil:
			m.seen["lease part failed"]++
		case o.Key != "" && m.keys[fmt.Sprint(m.shardOf(o.ME), "/", o.Key)]:
			m.seen["duplicate, lease answered"]++
		}
		if rep := m.apply(upload); rep.Class != "ok" || st == nil {
			return rep
		}
		return m.apply(lease)
	case "upload":
		sh := m.shardOf(o.Results[0].ME)
		key := fmt.Sprint(sh, "/", o.Key)
		switch {
		case len(o.Results) > m.spoolCap:
			m.seen["spool full"]++
			return reply{Class: "busy"}
		case o.Key != "" && m.keys[key]:
			m.seen["duplicate dropped"]++
			return reply{Class: "ok"}
		}
		for _, r := range o.Results {
			r.Uploaded = stamp
			m.results[sh] = append(m.results[sh], r)
		}
		if o.Key != "" {
			m.keys[key] = true
		}
		return reply{Class: "ok"}
	case "lease":
		if st == nil {
			m.seen["unknown ME"]++
			return reply{Class: "unknown-me"}
		}
		if o.Redeliver {
			if st.acked < st.sent {
				m.seen["redelivery mid-lease"]++
			}
			st.acked, st.sent = 0, 0
		}
		if !o.Vitals.IsZero() {
			st.vitals = o.Vitals
		}
		for st.acked < st.sent && st.sched[st.acked].ID <= o.Ack {
			st.acked++
		}
		if st.acked < st.sent {
			m.seen["re-sent"]++
		}
		if o.Max < 1 || o.Max > amigo.MaxLeaseBatch {
			m.seen["max clamped"]++
		}
		n := min(max(o.Max, 1), amigo.MaxLeaseBatch, len(st.sched)-st.acked)
		st.sent = max(st.sent, st.acked+n)
		if n > 0 && st.acked+n == len(st.sched) {
			m.seen["drained"]++
		}
		return reply{Tasks: slices.Clone(st.sched[st.acked : st.acked+n]), Drained: st.acked+n == len(st.sched), Class: "ok"}
	}
	panic("model: unknown op " + o.Kind)
}

// The generator's world: three MEs scheduled now and then, and one never; a spool small enough that large batches bounce off it.
const modelSpoolCap = 6

var modelMEs = []string{"me-a", "me-b", "me-c", "ghost"}

// genOps draws n operations from seed for a control plane sharded by
// shardOf. Its own model gives the client side what an Endpoint would
// know: the ack cursor to send, the leases it could upload, the uploads it
// could repeat, whether its last redelivery went through. A lost lease
// response leaves the cursor where it was, so the retry acks stale, and a
// redelivery stays pending until a lease carrying it is answered; other
// leases ack zero, an old ID or past the end. Some uploads carry a lease,
// now and then one naming another ME; they are repeated like the others.
func genOps(seed int64, n, shards int, shardOf func(string) int) []op {
	src := rng.New(seed)
	m := newModel(modelSpoolCap, shards, shardOf)
	cursor := map[string]int{}
	redeliver := map[string]bool{}
	leased := map[string][][]amigo.Task{}
	var uploads, ops []op
	for len(ops) < n {
		me := modelMEs[src.Intn(len(modelMEs))]
		if me == "ghost" && src.Bool(0.5) {
			continue // the ghost draws a quarter as often as the others
		}
		past := leased[me]
		o := op{Kind: "lease", ME: me}
		switch r := src.Intn(20); {
		case r < 4 && src.Bool(0.3):
			// One request scheduling 2 or 3 of the scheduled MEs, in a drawn
			// order; it answers nothing an ME would act on.
			o = op{Kind: "schedule-block"}
			for _, i := range src.Perm(3)[:2+src.Intn(2)] {
				name := modelMEs[i]
				o.Block = append(o.Block, op{Kind: "schedule", ME: name, Tasks: genTasks(src, leased[name])})
			}
			m.apply(o)
			ops = append(ops, o)
			continue
		case r < 4:
			o.Kind, o.Tasks = "schedule", genTasks(src, past)
		case r < 6 && len(uploads) > 0:
			o = uploads[src.Intn(len(uploads))]
		case r < 11:
			o.Kind, o.Results = "upload", genResults(src, me, past)
			o.ME = me
			if src.Bool(0.85) {
				o.Key = fmt.Sprintf("%s%v", me, resultIDs(o.Results))
			}
			if src.Bool(0.4) {
				o.Kind = "upload+lease"
				if src.Bool(0.1) {
					o.ME = modelMEs[src.Intn(len(modelMEs))]
				}
				genLease(src, &o, cursor[o.ME], leased[o.ME], len(ops))
			}
		default:
			genLease(src, &o, cursor[me], past, len(ops))
			if redeliver[me] || src.Bool(0.1) {
				o.Ack, o.Redeliver, redeliver[me] = 0, true, true
				cursor[me] = 0
			}
		}
		rep := m.apply(o)
		switch {
		case rep.Class != "ok":
		case o.Kind == "lease" || o.Kind == "upload+lease":
			lost := src.Bool(0.25)
			if o.Redeliver {
				redeliver[o.ME] = lost
			}
			if len(rep.Tasks) > 0 {
				leased[o.ME] = append(leased[o.ME], rep.Tasks)
				if !lost {
					cursor[o.ME] = rep.Tasks[len(rep.Tasks)-1].ID
				}
			}
		}
		if rep.Class == "ok" && o.Kind != "lease" && o.Kind != "schedule" {
			uploads = append(uploads, o)
		}
		ops = append(ops, o)
	}
	return ops
}

// genLease draws a lease's Max, Ack and Vitals onto o for an ME whose
// cursor is at ack and whose past leases are past: mostly the cursor,
// sometimes zero, an old ID or past the end; a Max of 1 to 8, now and
// then 0 or past the clamp.
func genLease(src *rng.Source, o *op, ack int, past [][]amigo.Task, step int) {
	o.Ack = ack
	switch a := src.Intn(10); {
	case a == 0:
		o.Ack = 0
	case a == 1 && len(past) > 0:
		old := past[src.Intn(len(past))]
		o.Ack = old[src.Intn(len(old))].ID
	case a == 2:
		o.Ack += 1 + src.Intn(5)
	}
	o.Max = 1 + src.Intn(8)
	switch x := src.Intn(20); {
	case x == 0:
		o.Max = 0
	case x == 1:
		o.Max = amigo.MaxLeaseBatch + 1 + src.Intn(100)
	}
	if src.Bool(0.3) {
		o.Vitals = amigo.Vitals{CQI: 1 + step, RAT: "5G"}
	}
}

// genTasks is a schedule: a few fresh tasks, rarely more than a lease can
// carry, sometimes a past lease re-scheduled under its pinned IDs (how the
// fleet re-schedules an ME on a replacement shard).
func genTasks(src *rng.Source, past [][]amigo.Task) []amigo.Task {
	if len(past) > 0 && src.Bool(0.15) {
		return slices.Clone(past[src.Intn(len(past))])
	}
	n := 1 + src.Intn(5)
	if src.Bool(0.03) {
		n = amigo.MaxLeaseBatch + 8
	}
	tasks := make([]amigo.Task, n)
	for i := range tasks {
		tasks[i] = amigo.Task{Kind: "dns", Config: "esim"}
		if src.Bool(0.5) {
			tasks[i] = amigo.Task{Kind: "mtr", Target: "Google", Config: "sim"}
		}
	}
	return tasks
}

// genResults uploads results for part of a past lease — perhaps one
// already uploaded or since re-delivered — or, for an ME that never
// leased, for made-up task IDs. Up to modelSpoolCap+2 results, so some
// batches are more than the spool holds.
func genResults(src *rng.Source, me string, past [][]amigo.Task) []amigo.Result {
	n := 1 + src.Intn(modelSpoolCap+2)
	tasks := make([]amigo.Task, n)
	for i := range tasks {
		tasks[i] = amigo.Task{ID: 1 + i, Kind: "dns", Config: "esim"}
	}
	if len(past) > 0 {
		l := past[src.Intn(len(past))]
		tasks = l[:min(n, len(l))]
	}
	results := make([]amigo.Result, len(tasks))
	for i, t := range tasks {
		results[i] = amigo.Result{TaskID: t.ID, ME: me, Kind: t.Kind, Config: t.Config, OK: true,
			Payload: []byte(fmt.Sprintf(`{"task":%d}`, t.ID))}
	}
	return results
}

func taskIDs(tasks []amigo.Task) []int {
	ids := make([]int, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	return ids
}

func resultIDs(results []amigo.Result) []int {
	ids := make([]int, len(results))
	for i, r := range results {
		ids[i] = r.TaskID
	}
	return ids
}

// target is a real control plane under test: its servers in shard order,
// the Transport an ME reaches it through, and how an operator schedules a
// block of "schedule" ops, answering their tasks in block order.
type target struct {
	tr       amigo.Transport
	servers  []*amigo.Server
	shardOf  func(string) int
	schedule func(block []op) ([]amigo.Task, error)
}

func newServer() *amigo.Server {
	return amigo.NewServer(func() time.Time { return stamp }, amigo.WithSpoolCapacity(modelSpoolCap))
}

// directTarget is one Server called in process, one ScheduleBatch per
// schedule.
func directTarget(*testing.T) *target {
	srv := newServer()
	return &target{
		tr: amigo.DirectTransport{Server: srv}, servers: []*amigo.Server{srv},
		shardOf: func(string) int { return 0 },
		schedule: func(block []op) ([]amigo.Task, error) {
			var out []amigo.Task
			for _, f := range block {
				ids, err := srv.ScheduleBatch(f.ME, f.Tasks)
				if err != nil {
					return nil, err
				}
				tasks := slices.Clone(f.Tasks)
				for i := range tasks {
					tasks[i].ID = ids[i]
				}
				out = append(out, tasks...)
			}
			return out, nil
		},
	}
}

// gatewayTarget is four Servers behind a shard.Gateway on loopback; a
// block is one POST of the fleet driver's MsgSchedule frames to
// /admin/schedule, answered by one MsgTasks frame each.
func gatewayTarget(t *testing.T) *target {
	servers := make([]*amigo.Server, 4)
	backends := make([]http.Handler, len(servers))
	for i := range servers {
		servers[i] = newServer()
		backends[i] = shard.Mount(servers[i].Handler(), servers[i].AdminHandler())
	}
	gw := shard.NewGateway(backends, shard.Options{})
	hs := httptest.NewServer(gw)
	t.Cleanup(hs.Close)
	u, err := amigo.Route(hs.URL, "/admin/schedule")
	if err != nil {
		t.Fatal(err)
	}
	return &target{
		tr: amigo.HTTPTransport(hs.URL, hs.Client()), servers: servers, shardOf: gw.Ring().Shard,
		schedule: func(block []op) ([]amigo.Task, error) {
			var body []byte
			for _, f := range block {
				body = wire.AppendSchedule(body, f.ME, f.Tasks)
			}
			h := http.Header{"Content-Type": {wire.ContentType}}
			resp, err := amigo.Send(context.Background(), hs.Client(), http.MethodPost, u, h, body)
			if err != nil {
				return nil, err
			}
			defer amigo.DrainClose(resp)
			if resp.StatusCode == http.StatusNotFound {
				return nil, amigo.ErrUnknownME
			}
			var tasks []amigo.Task
			for range block {
				_, payload, err := wire.ReadFrame(resp.Body, nil)
				if err != nil || resp.StatusCode != http.StatusOK {
					return nil, fmt.Errorf("schedule: HTTP %d: %v", resp.StatusCode, err)
				}
				if tasks, err = wire.NewDecoder().Tasks(payload, tasks); err != nil {
					return nil, err
				}
			}
			return tasks, nil
		},
	}
}

func (tg *target) apply(o op) reply {
	ctx := context.Background()
	var tasks []amigo.Task
	var drained bool
	var err error
	switch o.Kind {
	case "schedule":
		tasks, err = tg.schedule([]op{o})
	case "schedule-block":
		tasks, err = tg.schedule(o.Block)
	case "lease":
		tasks, drained, err = tg.tr.Lease(ctx, wire.LeaseRequest{ME: o.ME, Max: o.Max, Ack: o.Ack, Vitals: o.Vitals, Redeliver: o.Redeliver})
	case "upload":
		tasks, drained, err = tg.tr.Upload(ctx, o.Key, o.Results, wire.LeaseRequest{})
	case "upload+lease":
		tasks, drained, err = tg.tr.Upload(ctx, o.Key, o.Results, wire.LeaseRequest{ME: o.ME, Max: o.Max, Ack: o.Ack, Vitals: o.Vitals})
	}
	var busy amigo.Retryable
	switch {
	case err == nil:
		return reply{Tasks: tasks, Drained: drained, Class: "ok"}
	case errors.Is(err, amigo.ErrUnknownME):
		return reply{Class: "unknown-me"}
	case errors.As(err, &busy):
		return reply{Class: "busy"}
	case errors.Is(err, amigo.ErrLeaseME) || strings.HasSuffix(err.Error(), "HTTP 400"):
		return reply{Class: "bad-request"}
	}
	return reply{Class: err.Error()}
}

// runModel applies ops to a fresh model and to tg, failing at the first
// reply that differs, then compares what each shard holds: its results in
// order, its MEs, and their last vitals.
func runModel(t *testing.T, tg *target, ops []op) *model {
	t.Helper()
	m := newModel(modelSpoolCap, len(tg.servers), tg.shardOf)
	for i, o := range ops {
		want, got := m.apply(o), tg.apply(o)
		if got.Class != want.Class || !slices.Equal(got.Tasks, want.Tasks) || got.Drained != want.Drained {
			t.Fatalf("op %d (%v): got %s %v drained %v, model says %s %v drained %v", i, o,
				got.Class, taskIDs(got.Tasks), got.Drained, want.Class, taskIDs(want.Tasks), want.Drained)
		}
	}
	for i, srv := range tg.servers {
		got := srv.Results()
		if !slices.EqualFunc(got, m.results[i], func(a, b amigo.Result) bool { return reflect.DeepEqual(a, b) }) {
			t.Fatalf("shard %d holds results %v, model says %v", i, resultIDs(got), resultIDs(m.results[i]))
		}
		var mes []string
		for name := range m.mes {
			if tg.shardOf(name) == i {
				mes = append(mes, name)
			}
		}
		sort.Strings(mes)
		if got := srv.MEs(); !slices.Equal(got, mes) {
			t.Fatalf("shard %d knows MEs %v, model says %v", i, got, mes)
		}
	}
	for name, st := range m.mes {
		if v, _ := tg.servers[tg.shardOf(name)].Vitals(name); v != st.vitals {
			t.Fatalf("%s: vitals %+v, model says %+v", name, v, st.vitals)
		}
	}
	return m
}

// TestProtocolModel: seeded operation sequences over three MEs and a ghost
// — schedules of one ME and blocks of several in one request, duplicate
// and stale uploads, stale and lost-response acks, redelivery with leases
// outstanding and its lost response retried, unknown MEs, Max of 0 and
// past the clamp, drained leases, batches the spool refuses, and uploads carrying a lease
// (retried as duplicates, failing their lease part, naming another ME) —
// answer exactly as the model says, drained flag included, in process and
// through a 4-shard gateway over HTTP.
func TestProtocolModel(t *testing.T) {
	seeds, steps := 24, 160
	if testing.Short() {
		seeds = 6
	}
	for _, tc := range []struct {
		name string
		new  func(*testing.T) *target
	}{{"direct", directTarget}, {"gateway", gatewayTarget}} {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[string]int{}
			spread := map[int]bool{}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				tg := tc.new(t)
				ops := genOps(seed, steps, len(tg.servers), tg.shardOf)
				t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
					for ev, n := range runModel(t, tg, ops).seen {
						seen[ev] += n
					}
				})
				for _, me := range modelMEs {
					spread[tg.shardOf(me)] = true
				}
			}
			for _, ev := range []string{"duplicate dropped", "spool full", "unknown ME", "re-sent", "max clamped", "redelivery mid-lease", "drained",
				"lease of another ME", "lease part failed", "duplicate, lease answered", "schedule block"} {
				if seen[ev] == 0 {
					t.Errorf("no sequence exercised %q", ev)
				}
			}
			if tc.name == "gateway" && len(spread) < 2 {
				t.Errorf("the MEs all live on one shard; the gateway routes nothing")
			}
		})
	}
}

// FuzzProtocolModel draws the generator's sequences from fuzzed seeds and
// lengths, and checks each op by op against the model on both transports,
// as TestProtocolModel does for its fixed seeds.
func FuzzProtocolModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(160))
	}
	f.Add(int64(-7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		for _, newTarget := range []func(*testing.T) *target{directTarget, gatewayTarget} {
			tg := newTarget(t)
			runModel(t, tg, genOps(seed, int(n), len(tg.servers), tg.shardOf))
		}
	})
}
