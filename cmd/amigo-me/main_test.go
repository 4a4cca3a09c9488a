package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
)

// TestOnceWithNothingScheduled: against a server that knows nothing of
// the ME, -once reads the 404 lease as "nothing scheduled yet", executes
// nothing and succeeds; once tasks are scheduled it runs them.
func TestOnceWithNothingScheduled(t *testing.T) {
	srv := amigo.NewServer(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	var out bytes.Buffer
	if err := run(hs.URL, "pak", 1, 0, true, &out); err != nil {
		t.Fatalf("-once with nothing scheduled: %v", err)
	}
	if strings.Contains(out.String(), "executed") || len(srv.MEs()) != 0 {
		t.Fatalf("-once with nothing scheduled printed %q and left MEs %v; want nothing executed, none created", out.String(), srv.MEs())
	}
	if _, err := srv.ScheduleBatch("me-PAK", []amigo.Task{{Kind: "dns", Config: "esim"}, {Kind: "dns", Config: "sim"}}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(hs.URL, "PAK", 1, 0, true, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 tasks executed and uploaded") || len(srv.Results()) != 2 {
		t.Fatalf("-once with 2 scheduled printed %q, server holds %d results", out.String(), len(srv.Results()))
	}
}

// TestHeartbeatKeepsTheCarriedLease: amigo-me heartbeats before every
// tenth batch. Over 400 tasks (13 batches of up to 32) that heartbeat
// rides the lease the upload before it carried, so the ME makes one lease
// request and 13 uploads, and the server redelivers nothing: a Lease that
// dropped the carried reply to report vitals would make the server re-send
// that batch.
func TestHeartbeatKeepsTheCarriedLease(t *testing.T) {
	reg := obs.NewRegistry()
	srv := amigo.NewServer(nil, amigo.WithObs(reg))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if _, err := srv.ScheduleBatch("me-DEU", make([]amigo.Task, 400)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(hs.URL, "DEU", 1, 0, true, &out); err != nil {
		t.Fatal(err)
	}
	requests := func(route string) int64 {
		var n int64
		for _, class := range []string{"2xx", "3xx", "4xx", "429", "5xx"} {
			n += reg.Counter("amigo_server_requests_total", obs.L("route", route), obs.L("class", class)).Value()
		}
		return n
	}
	leases, uploads := requests("/v3/tasks/lease"), requests("/v3/results")
	redelivered := reg.Counter("amigo_server_redelivered_tasks_total").Value()
	if leases != 1 || uploads != 13 || redelivered != 0 || len(srv.Results()) != 400 {
		t.Fatalf("400 tasks: %d lease requests, %d uploads, %d tasks redelivered, %d results; want 1, 13, 0, 400",
			leases, uploads, redelivered, len(srv.Results()))
	}
	if v, ok := srv.Vitals("me-DEU"); !ok || v.IsZero() {
		t.Fatalf("server holds vitals %+v for me-DEU; want the heartbeats reported", v)
	}
}
