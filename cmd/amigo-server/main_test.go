package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/fleet"
	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

// lockedBuffer is run's output, written by its goroutine and read by the
// test; wrote holds a token after every write.
type lockedBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{}
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.wrote <- struct{}{}:
	default:
	}
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor waits, write by write, until the output contains s.
func (b *lockedBuffer) waitFor(t *testing.T, s string) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for !strings.Contains(b.String(), s) {
		select {
		case <-b.wrote:
		case <-timeout:
			t.Fatalf("output never contained %q:\n%s", s, b.String())
		}
	}
}

// acceptListener reports the remote address of every accepted connection.
type acceptListener struct {
	net.Listener
	accepted chan string
}

func (l acceptListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- c.RemoteAddr().String()
	}
	return c, err
}

// server is one run on a loopback port.
type server struct {
	url      string
	accepted chan string
	out      *lockedBuffer
	stop     context.CancelFunc
	done     chan error
}

func start(t *testing.T, cfg fleet.ShardedConfig) *server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// accepted has room for every connection a test opens, so Accept never
	// waits on a test that is not reading it.
	s := &server{url: "http://" + ln.Addr().String(), accepted: make(chan string, 64),
		out: &lockedBuffer{wrote: make(chan struct{}, 1)}, done: make(chan error, 1)}
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	go func() { s.done <- run(ctx, acceptListener{ln, s.accepted}, cfg, false, s.out) }()
	t.Cleanup(func() { s.shutdown(t) })
	return s
}

// shutdown cancels run, if that is not done yet, and returns its error;
// later calls return nil.
func (s *server) shutdown(t *testing.T) error {
	t.Helper()
	if s.done == nil {
		return nil
	}
	s.stop()
	http.DefaultClient.CloseIdleConnections()
	select {
	case err := <-s.done:
		s.done = nil
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
		return nil
	}
}

// schedule queues count dns tasks for me as one MsgSchedule frame.
func (s *server) schedule(t *testing.T, me string, count int) {
	t.Helper()
	body := wire.AppendSchedule(nil, me, tasksOf("dns", "sim", count))
	resp, err := http.Post(s.url+"/admin/schedule", wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	amigo.DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule for %s: %s", me, resp.Status)
	}
}

// tasksOf is count tasks of one kind and config.
func tasksOf(kind, config string, count int) []amigo.Task {
	tasks := make([]amigo.Task, count)
	for i := range tasks {
		tasks[i] = amigo.Task{Kind: kind, Config: config}
	}
	return tasks
}

func (s *server) metrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(s.url + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer amigo.DrainClose(resp)
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSingleServer: by default run serves one instrumented server and
// prints nothing of shards; a schedule is leased over v3 and the lease
// shows in the amigo_server_* families.
func TestSingleServer(t *testing.T) {
	s := start(t, fleet.ShardedConfig{Shards: 1, Obs: obs.NewRegistry()})
	s.schedule(t, "me-PAK", 3)
	tasks, err := amigo.NewEndpoint("me-PAK", s.url, nil, nil).Lease(32)
	if err != nil || len(tasks) != 3 {
		t.Fatalf("v3 lease: %d tasks, %v; want 3", len(tasks), err)
	}
	m := s.metrics(t)
	for _, want := range []string{
		`amigo_server_requests_total{class="2xx",route="/v3/tasks/lease"} 1`,
		"amigo_server_registered_mes 1",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/admin/metrics lacks %q:\n%s", want, m)
		}
	}
	if err := s.shutdown(t); err != nil {
		t.Fatal(err)
	}
	if out := s.out.String(); strings.Contains(out, "shards") {
		t.Errorf("a single server printed a shard banner: %q", out)
	}
}

// TestShardedDrainAndRestart: two WAL-backed shards report their banner,
// answer a request that arrives while draining with 503 + Retry-After,
// sync their WALs on the way out, and a restart over the same directory
// replays every uploaded result.
func TestShardedDrainAndRestart(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := start(t, fleet.ShardedConfig{Shards: 2, WALDir: dir, Obs: reg})
	s.out.waitFor(t, fmt.Sprintf("amigo-server: 2 shards (WAL epoch 0), WALs under %s (0 results replayed)\n", dir))

	uploaded := 0
	for _, me := range []string{"me-DEU", "me-GEO", "me-KOR", "me-PAK"} {
		s.schedule(t, me, 2)
		ep := amigo.NewEndpoint(me, s.url, nil, nil)
		tasks, err := ep.Lease(32)
		if err != nil || len(tasks) != 2 {
			t.Fatalf("%s lease: %d tasks, %v; want 2", me, len(tasks), err)
		}
		results := make([]amigo.Result, len(tasks))
		for i, task := range tasks {
			results[i] = amigo.Result{TaskID: task.ID, ME: me, Kind: task.Kind, Config: task.Config, OK: true}
		}
		if err := ep.Upload(results); err != nil {
			t.Fatal(err)
		}
		uploaded += len(results)
	}
	fsyncs := func() int64 {
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "walsink_fsyncs_total{") {
				v, _ := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
				n += v
			}
		}
		return n
	}
	before := fsyncs()

	// A connection the server has accepted but that has sent nothing yet
	// is not idle, so Shutdown waits for it; its request arrives after
	// the gate closed.
	conn, err := net.Dial("tcp", strings.TrimPrefix(s.url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for addr := ""; addr != conn.LocalAddr().String(); {
		addr = <-s.accepted
	}
	s.stop()
	s.out.waitFor(t, "draining")
	if _, err := conn.Write([]byte("GET /admin/results?cursor=-1 HTTP/1.1\r\nHost: amigo\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	amigo.DrainClose(resp)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("a request during drain got %s, Retry-After %q; want 503 with a Retry-After", resp.Status, resp.Header.Get("Retry-After"))
	}
	if err := s.shutdown(t); err != nil {
		t.Fatalf("run after drain: %v", err)
	}
	if after := fsyncs(); after <= before {
		t.Errorf("walsink_fsyncs_total %d before shutdown, %d after: the WALs were not synced on close", before, after)
	}

	// -shards 3 on restart: the manifest's 2 wins.
	r := start(t, fleet.ShardedConfig{Shards: 3, WALDir: dir, Obs: obs.NewRegistry()})
	r.out.waitFor(t, fmt.Sprintf("amigo-server: 2 shards (WAL epoch 0), WALs under %s (%d results replayed)\n", dir, uploaded))
	if err := r.shutdown(t); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleFixtures: each schedule frame under testdata, which
// scripts/smoke.sh POSTs with curl (alone, or two as one body), is
// wire.AppendSchedule of the tasks its name describes:
// <me>_<kind>_<config>_<count>.v3; the three the script names are there.
func TestScheduleFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.v3"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no schedule fixtures under testdata (%v)", err)
	}
	for _, name := range []string{"me-DEU_speedtest_esim_5.v3", "me-DEU_dns_sim_40.v3", "me-PAK_dns_sim_3.v3"} {
		if !slices.Contains(paths, filepath.Join("testdata", name)) {
			t.Errorf("testdata/%s, which scripts/smoke.sh sends, is missing", name)
		}
	}
	for _, path := range paths {
		f := strings.Split(strings.TrimSuffix(filepath.Base(path), ".v3"), "_")
		if len(f) != 4 {
			t.Fatalf("%s: want <me>_<kind>_<config>_<count>.v3", path)
		}
		count, err := strconv.Atoi(f[3])
		if err != nil {
			t.Fatalf("%s: count: %v", path, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.AppendSchedule(nil, f[0], tasksOf(f[1], f[2], count))
		if !bytes.Equal(got, want) {
			t.Errorf("%s is not the schedule of %d %s/%s tasks for %s", path, count, f[1], f[2], f[0])
		}
	}
}
