package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

// testDaemon boots a serve.Server with a frozen clock behind httptest so
// the client's view of the queue is deterministic.
func testDaemon(t *testing.T) string {
	t.Helper()
	srv, err := serve.New(serve.Options{Procs: 8, Scheduler: "easy", Audit: true, Speed: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("daemon drain: %v", err)
		}
	})
	return ts.URL
}

// ctl runs one schedctl invocation against the test daemon.
func ctl(t *testing.T, addr string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"-addr", addr}, args...), &out); err != nil {
		t.Fatalf("schedctl %s: %v\noutput:\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

func TestCtlLifecycle(t *testing.T) {
	addr := testDaemon(t)

	// Fill the 8-proc machine, then submit a queued job with a forecast.
	out := ctl(t, addr, "submit", "-width", "8", "-runtime", "100")
	if !strings.Contains(out, "job 1  running") {
		t.Fatalf("submit output = %q, want running job 1", out)
	}
	out = ctl(t, addr, "submit", "-width", "4", "-runtime", "50")
	if !strings.Contains(out, "job 2  queued") || !strings.Contains(out, "predicted start t=100") {
		t.Fatalf("submit output = %q, want queued with predicted start 100", out)
	}

	out = ctl(t, addr, "stat", "2")
	if !strings.Contains(out, "job 2  queued") {
		t.Fatalf("stat output = %q", out)
	}

	out = ctl(t, addr, "queue")
	for _, want := range []string{"EASY(FCFS)", "8/8 busy", "running (1):", "queued (1):"} {
		if !strings.Contains(out, want) {
			t.Errorf("queue output missing %q:\n%s", want, out)
		}
	}

	out = ctl(t, addr, "cancel", "2")
	if !strings.Contains(out, "job 2 cancelled") {
		t.Fatalf("cancel output = %q", out)
	}

	out = ctl(t, addr, "health")
	if !strings.Contains(out, `"status":"ok"`) {
		t.Fatalf("health output = %q", out)
	}

	out = ctl(t, addr, "metrics")
	for _, want := range []string{
		"schedd_jobs_submitted_total 2",
		"schedd_jobs_cancelled_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestCtlInfo(t *testing.T) {
	addr := testDaemon(t)
	out := ctl(t, addr, "info")
	if !strings.Contains(out, "\ndurability.enabled false\n") || !strings.Contains(out, "\ndurability.state_hash ") {
		t.Fatalf("info output = %q", out)
	}
}

func TestCtlInfoDurable(t *testing.T) {
	srv, err := serve.New(serve.Options{
		Procs: 8, Scheduler: "easy", Audit: true, Speed: 1e-9,
		Durability: serve.DurabilityOptions{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("daemon drain: %v", err)
		}
		srv.Close()
	})

	ctl(t, ts.URL, "submit", "-width", "8", "-runtime", "30")
	ctl(t, ts.URL, "submit", "-width", "2", "-runtime", "30") // queued: its response carries a forecast
	out := "\n" + ctl(t, ts.URL, "info")
	for _, want := range []string{"durability.enabled true", "durability.seq 4", "durability.fsync false", "counters.history_records 4",
		"scheduler EASY(FCFS)", "counters.passes_skipped 0", "counters.passes_settled 0", "counters.passes_full 2",
		"counters.forecast_extends 0", "counters.forecast_no_predecessor 1", "counters.forecast_full.count 1"} {
		if !strings.Contains(out, "\n"+want+"\n") {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}
}

func TestCtlSubmitBatch(t *testing.T) {
	addr := testDaemon(t)
	out := ctl(t, addr, "submit", "-width", "2", "-runtime", "30", "-n", "3")
	if got := strings.Count(out, "job "); got != 3 {
		t.Fatalf("submit -n 3 printed %d jobs:\n%s", got, out)
	}
}

func TestCtlErrors(t *testing.T) {
	addr := testDaemon(t)
	cases := [][]string{
		{},                         // no command
		{"frobnicate"},             // unknown command
		{"stat"},                   // missing ID
		{"stat", "x"},              // bad ID
		{"stat", "99"},             // unknown job
		{"cancel", "99"},           // unknown job
		{"submit", "-width", "16"}, // wider than the machine → 400
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(append([]string{"-addr", addr}, args...), &out); err == nil {
			t.Errorf("schedctl %v succeeded, want error", args)
		}
	}
}

func TestCtlServerErrorMessage(t *testing.T) {
	addr := testDaemon(t)
	var out bytes.Buffer
	err := run([]string{"-addr", addr, "stat", "99"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown job 99") {
		t.Fatalf("error = %v, want server message about unknown job 99", err)
	}
	if !strings.Contains(err.Error(), strconv.Itoa(404)) {
		t.Fatalf("error = %v, want status 404 mentioned", err)
	}
}

// TestCtlGivesUpOnASilentDaemon points schedctl at a daemon that accepts
// the connection and never answers, as a wedged scheduler loop holding a
// stats read would: it must return an error within requestTimeout. The
// bound is shortened from 20 s to 1 s and the slack past it scaled with
// it; the test is not parallel, since the others read the bound.
func TestCtlGivesUpOnASilentDaemon(t *testing.T) {
	defer func(d time.Duration) { requestTimeout = d }(requestTimeout)
	requestTimeout = time.Second
	slack := requestTimeout / 4 // 5 s at the production bound
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", ts.URL, "info"}, io.Discard) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("schedctl info against a silent daemon succeeded")
		}
	case <-time.After(requestTimeout + slack):
		t.Fatalf("schedctl still waiting on a silent daemon %s past its bound", slack)
	}
}

// TestExitStatus holds main's ending to flag.ExitOnError's: -h prints the
// usage once and exits 0, a bad flag prints its error and the usage once
// and exits 2, and only an error of the run itself reaches stderr, as one
// line, with status 1. An empty stdout case means no output at all.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args           []string
		status         int
		stdout, stderr string
	}{
		{[]string{"-h"}, 0, "usage: schedctl", ""},
		{[]string{"-bogus"}, 2, "usage: schedctl", ""},
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus", ""},
		{[]string{"submit", "-width", "x"}, 2, "invalid value \"x\" for flag -width", ""},
		{[]string{"bogus"}, 1, "usage: schedctl", "schedctl: unknown command \"bogus\"\n"},
	} {
		var out, stderr bytes.Buffer
		status := cli.Status("schedctl", run(c.args, &out), &stderr)
		if status != c.status || strings.Count(out.String(), c.stdout) != 1 || stderr.String() != c.stderr {
			t.Errorf("%v: status %d, want %d; stdout has %q %d times, want once; stderr %q, want %q",
				c.args, status, c.status, c.stdout, strings.Count(out.String(), c.stdout), stderr.String(), c.stderr)
		}
	}
}
