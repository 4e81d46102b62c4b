package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

// TestMain gives the real-daemon tests one directory to share a schedd
// build in, and removes it after the run.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "schedload-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	schedd.dir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// schedd is the real daemon binary the tests share, built on first use.
var schedd struct {
	dir  string
	once sync.Once
	err  error
}

// TestLoadRemote drives a daemon over a real socket with -addr, the one
// load path that does not start its own daemons: a serve.Server behind an
// httptest server, virtual time held still as schedd -speed 1e-9 holds it.
// The text and the JSON report must both carry traffic and no errors.
func TestLoadRemote(t *testing.T) {
	srv, err := serve.New(serve.Options{Procs: 16, Scheduler: "easy", Policy: "FCFS", Speed: 1e-9})
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
		<-done
		srv.Close()
	})
	args := []string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"),
		"-procs", "16", "-queue", "16", "-readers", "2", "-writers", "1", "-duration", "200ms",
	}
	for _, tc := range []struct {
		name  string
		extra []string
		want  []string
	}{
		{"text", nil, []string{"mode=remote", "reads:", "writes:", "errors=0"}},
		{"json", []string{"-json"}, []string{`"mode": "remote"`, `"qps"`, `"p99_us"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(append(slices.Clone(args), tc.extra...), &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			s := out.String()
			for _, want := range tc.want {
				if !strings.Contains(s, want) {
					t.Errorf("report missing %q:\n%s", want, s)
				}
			}
			if n := strings.Count(s, "errors"); n != 2 || strings.Count(s, "errors=0")+strings.Count(s, `"errors": 0`) != n {
				t.Errorf("want both classes at zero errors:\n%s", s)
			}
		})
	}
}

// TestLoadFlagValidation pins the argument errors.
func TestLoadFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:1", "-readers", "0", "-writers", "0"}, &out); err == nil || !strings.Contains(err.Error(), "reader or writer") {
		t.Errorf("zero readers and writers should fail, got %v", err)
	}
	if err := run([]string{"-addr", "127.0.0.1:1", "-duration", "0s"}, &out); err == nil || !strings.Contains(err.Error(), "positive duration") {
		t.Errorf("zero duration should fail, got %v", err)
	}
	if err := run([]string{"-shards", "0"}, &out); err == nil {
		t.Error("zero shards should fail")
	}
	// With no daemon to load there is no run: the error names every way
	// to give one.
	err := run([]string{"-duration", "100ms"}, &out)
	for _, flag := range []string{"-addr", "-drill", "-replicas", "-ack-quorum"} {
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("a run with no target: error %v does not name %s", err, flag)
		}
	}
}

// buildSchedd compiles the real daemon the first time a test needs it.
func buildSchedd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(schedd.dir, "schedd")
	schedd.once.Do(func() {
		if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/schedd").CombinedOutput(); err != nil {
			schedd.err = fmt.Errorf("build schedd: %v\n%s", err, out)
		}
	})
	if schedd.err != nil {
		t.Fatal(schedd.err)
	}
	return bin
}

// TestLoadDrills runs every row of the crash-drill table for two cycles
// against one build of the real daemon. Each row's report must show the
// victim rotating where the row rotates it, the row's own recovery, and
// no acknowledged write lost.
func TestLoadDrills(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crash-cycles real daemons")
	}
	bin := buildSchedd(t)
	for _, tc := range []struct {
		row  string
		want []string
	}{
		{"restart", []string{"leader of shard 0 killed", "0 survivors live, restarted, hash"}},
		{"shards", []string{"cycle 1: leader of shard 0 killed", "cycle 2: leader of shard 1 killed", "3 survivors live, restarted, hash"}},
		{"promote", []string{"follower promoted (term 1), hash", "follower promoted (term 2), hash"}},
		{"quorum", []string{"cycle 1: follower of shard 0 killed", "cycle 2: follower of shard 1 killed", "1 survivors live", "quorum clean on every shard"}},
	} {
		t.Run(tc.row, func(t *testing.T) {
			var out strings.Builder
			err := run([]string{
				"-drill", tc.row, "-schedd", bin,
				"-data-dir", t.TempDir(),
				"-procs", "16", "-writers", "2",
				"-iters", "2", "-burst", "250ms",
			}, &out)
			if err != nil {
				t.Fatalf("drill %s: %v\n%s", tc.row, err, out.String())
			}
			s := out.String()
			for _, want := range append(tc.want, "cycle 2:", "drill "+tc.row+": 2/2 cycles clean", "no acknowledged write lost") {
				if !strings.Contains(s, want) {
					t.Errorf("drill %s report missing %q:\n%s", tc.row, want, s)
				}
			}
			if tc.row != "quorum" && strings.Count(s, "matches shadow") != 2 {
				t.Errorf("drill %s: want both cycles' hashes to match the shadow:\n%s", tc.row, s)
			}
		})
	}
}

// TestLoadBenches runs each real-process bench once, short, against one
// build of the real daemon: the read bench over directory followers of a
// bare leader and over HTTP followers behind a two-shard routing front end,
// and the quorum sweep. Each report must carry its rows with no failed
// request.
func TestLoadBenches(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real daemons")
	}
	bin := buildSchedd(t)
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"replicas", []string{"-replicas", "1"},
			[]string{"mode=replica-1", "leader:", "follower-0-0:", "aggregate read capacity", "writes:"}},
		{"routed", []string{"-replicas", "1", "-read-route", "replica", "-shards", "2"},
			[]string{"mode=routed-2x1", "leader:", "follower-0-0:", "follower-1-0:", "routed:", "reads proxied to followers", "writes:"}},
		{"quorum", []string{"-ack-quorum", "1", "-writers", "2"},
			[]string{"quorum sweep", "q=0", "q=1", "(cost"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(append([]string{
				"-schedd", bin, "-data-dir", t.TempDir(),
				"-procs", "16", "-queue", "16", "-readers", "2", "-duration", "300ms",
			}, tc.args...), &out)
			if err != nil {
				t.Fatalf("%s bench: %v\n%s", tc.name, err, out.String())
			}
			s := out.String()
			for _, want := range tc.want {
				if !strings.Contains(s, want) {
					t.Errorf("report missing %q:\n%s", want, s)
				}
			}
			if n := strings.Count(s, "errors="); n == 0 || strings.Count(s, "errors=0") != n {
				t.Errorf("want every row at errors=0:\n%s", s)
			}
		})
	}
}

// TestLoadReplicaFlagValidation pins the real-daemon modes' argument errors.
func TestLoadReplicaFlagValidation(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-replicas", "1", "-drill", "restart"},
		{"-replicas", "1", "-ack-quorum", "1"},
		{"-drill", "promote", "-shards", "2"},
		{"-replicas", "1", "-shards", "2"},
		{"-drill", "bogus"},
		{"-replicas", "1", "-readers", "0"},
		{"-replicas", "0", "-read-route", "replica"},
		{"-replicas", "1", "-read-route", "leader"},
		{"-read-route", "replica"},
		{"-ack-quorum", "0"},
		// Retired mode flags are unknown flags.
		{"-kill"}, {"-queue-sweep"}, {"-write-rate", "20"}, {"-followers", "2"}, {"-route", "width"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%v should fail", args)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := percentile(sorted, 0.99); got != 9 {
		t.Errorf("p99 = %d, want 9", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %d, want 0", got)
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
		{[]string{"-h"}, 0, "Usage of schedload:", ""},
		{[]string{"-bogus"}, 2, "Usage of schedload:", ""},
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus", ""},
		{[]string{"-shards", "0"}, 1, "", "schedload: -shards must be at least 1, have 0\n"},
	} {
		var out, stderr bytes.Buffer
		status := cli.Status("schedload", run(c.args, &out), &stderr)
		if status != c.status || strings.Count(out.String(), c.stdout) != 1 || stderr.String() != c.stderr {
			t.Errorf("%v: status %d, want %d; stdout has %q %d times, want once; stderr %q, want %q",
				c.args, status, c.status, c.stdout, strings.Count(out.String(), c.stdout), stderr.String(), c.stderr)
		}
	}
}
