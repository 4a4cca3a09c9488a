package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"roamsim/internal/amigo"
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
