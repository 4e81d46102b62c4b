package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// boot starts run() on a free port and returns the base URL plus a stop
// function that cancels the daemon and returns its exit error.
func boot(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out, ready)
	}()
	var url string
	select {
	case url = <-ready:
	case err := <-errc:
		cancel()
		t.Fatalf("daemon exited before ready: %v\noutput:\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return url, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not exit after cancel")
			return nil
		}
	}
}

func getJSONinto(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestDaemonClosesStalledRequest pins the header timeout: a client that
// sends half a request line and then nothing is disconnected once
// readHeaderTimeout has passed, instead of holding its connection and its
// goroutine for as long as it likes.
func TestDaemonClosesStalledRequest(t *testing.T) {
	url, stop := boot(t, "-speed", "1e-9")
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	}()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/que")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open %v after half a request line: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("closed after %v, long before the %v header timeout", waited, readHeaderTimeout)
	}
}

func TestDaemonSubmitAndDrain(t *testing.T) {
	// A nearly-frozen clock keeps the submitted job running until drain.
	url, stop := boot(t, "-procs", "8", "-sched", "easy", "-speed", "1e-9")

	var health struct {
		Status  string `json:"status"`
		Pending int    `json:"pending"`
	}
	getJSONinto(t, url+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz status = %q, want ok", health.Status)
	}

	body := strings.NewReader(`{"width": 4, "runtime": 100}`)
	resp, err := http.Post(url+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var jv struct {
		ID    int    `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	if jv.State != "running" {
		t.Fatalf("job state = %q, want running (empty 8-proc machine)", jv.State)
	}

	// SIGTERM-equivalent: cancelling the context must drain the in-flight
	// job and exit clean.
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestDaemonSyntheticReplay(t *testing.T) {
	url, stop := boot(t,
		"-procs", "128", "-model", "SDSC", "-jobs", "40", "-seed", "7",
		"-sched", "conservative", "-policy", "SJF", "-speed", "0")

	// As-fast-as-possible replay: the whole preloaded trace should finish
	// promptly; poll until the event queue is empty.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var health struct {
			Pending int `json:"pending"`
		}
		getJSONinto(t, url+"/healthz", &health)
		if health.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay never finished: %d events pending", health.Pending)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var q struct {
		Completed int64 `json:"completed"`
	}
	getJSONinto(t, url+"/v1/queue", &q)
	if q.Completed != 40 {
		t.Fatalf("completed = %d, want 40", q.Completed)
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"schedd_jobs_submitted_total 40",
		"schedd_jobs_completed_total 40",
		"schedd_audit_violations 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestDaemonDurableRestart(t *testing.T) {
	dir := t.TempDir()
	durable := []string{"-procs", "8", "-sched", "easy", "-speed", "1e-9", "-data-dir", dir}
	url, stop := boot(t, durable...)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(url+"/v1/jobs", "application/json",
			strings.NewReader(`{"width": 2, "runtime": 100}`))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
		}
	}
	var live struct {
		Enabled bool   `json:"enabled"`
		Seq     uint64 `json:"seq"`
	}
	getJSONinto(t, url+"/v1/debug/durability", &live)
	if !live.Enabled || live.Seq == 0 {
		t.Fatalf("live durability info = %+v, want journaling", live)
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Restart on the same journal: the drained run recovers (3 completed
	// jobs) instead of starting empty.
	url2, stop2 := boot(t, durable...)
	var info struct {
		Enabled  bool `json:"enabled"`
		Recovery *struct {
			CheckpointSeq uint64 `json:"checkpoint_seq"`
			CheckpointOps int    `json:"checkpoint_ops"`
		} `json:"recovery"`
	}
	getJSONinto(t, url2+"/v1/debug/durability", &info)
	if !info.Enabled || info.Recovery == nil || info.Recovery.CheckpointOps == 0 {
		t.Fatalf("restart durability info = %+v, want recovery from the parting checkpoint", info)
	}
	var q struct {
		Completed int64 `json:"completed"`
	}
	getJSONinto(t, url2+"/v1/queue", &q)
	if q.Completed != 3 {
		t.Fatalf("recovered queue has %d completed jobs, want 3", q.Completed)
	}
	if err := stop2(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDaemonFederation boots a 3-shard federation and checks the merged
// surface: per-shard rows, summed capacity, globally unique job IDs, and a
// clean drain.
func TestDaemonFederation(t *testing.T) {
	url, stop := boot(t, "-procs", "8", "-sched", "easy", "-speed", "1e-9",
		"-shards", "3", "-route", "width")

	var rows []struct {
		Shard int `json:"shard"`
		Procs int `json:"procs"`
	}
	getJSONinto(t, url+"/v1/shards", &rows)
	if len(rows) != 3 {
		t.Fatalf("got %d shard rows, want 3", len(rows))
	}
	for i, r := range rows {
		if r.Shard != i || r.Procs != 8 {
			t.Fatalf("row %d: %+v", i, r)
		}
	}

	seen := map[int]bool{}
	for i := 0; i < 9; i++ {
		resp, err := http.Post(url+"/v1/jobs", "application/json",
			strings.NewReader(`{"width": 8, "runtime": 100, "user": `+strings.Repeat("1", 1+i%3)+`}`))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		var jv struct {
			ID int `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatalf("decode: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
		}
		if seen[jv.ID] {
			t.Fatalf("duplicate job ID %d across shards", jv.ID)
		}
		seen[jv.ID] = true
	}

	var q struct {
		Procs     int   `json:"procs"`
		Submitted int64 `json:"submitted"`
	}
	getJSONinto(t, url+"/v1/queue", &q)
	if q.Procs != 24 || q.Submitted != 9 {
		t.Fatalf("merged queue: procs=%d submitted=%d, want 24/9", q.Procs, q.Submitted)
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDaemonFederationReplay drains a synthetic trace through a 2-shard
// federation at full speed; every preloaded job must complete and the
// merged audit must stay silent.
func TestDaemonFederationReplay(t *testing.T) {
	url, stop := boot(t,
		"-procs", "128", "-model", "SDSC", "-jobs", "40", "-seed", "7",
		"-shards", "2", "-route", "width", "-speed", "0")

	deadline := time.Now().Add(10 * time.Second)
	for {
		var health struct {
			Pending int `json:"pending"`
		}
		getJSONinto(t, url+"/healthz", &health)
		if health.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated replay never finished: %d pending", health.Pending)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"schedd_jobs_submitted_total 40",
		"schedd_jobs_completed_total 40",
		"schedd_audit_violations 0",
		"schedd_procs_total 256",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("merged metrics missing %q:\n%s", want, buf.String())
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDaemonFederationDurableRestart journals a 2-shard federation into
// per-shard directories and restarts on them: both shards must recover and
// the merged state must carry the pre-restart jobs.
func TestDaemonFederationDurableRestart(t *testing.T) {
	dir := t.TempDir()
	fedArgs := []string{"-procs", "8", "-sched", "easy", "-speed", "1e-9",
		"-shards", "2", "-route", "width", "-data-dir", dir}
	url, stop := boot(t, fedArgs...)
	for i := 0; i < 4; i++ {
		resp, err := http.Post(url+"/v1/jobs", "application/json",
			strings.NewReader(`{"width": 2, "runtime": 100}`))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	url2, stop2 := boot(t, fedArgs...)
	var q struct {
		Completed int64 `json:"completed"`
	}
	getJSONinto(t, url2+"/v1/queue", &q)
	if q.Completed != 4 {
		t.Fatalf("recovered federation has %d completed jobs, want 4", q.Completed)
	}
	if err := stop2(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDaemonFollower boots a durable leader and a follower replica of its
// HTTP endpoint: the follower must catch up, serve the read surface,
// refuse writes with 421, and honor the ?min_seq= read barrier.
func TestDaemonFollower(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-procs", "8", "-sched", "easy", "-speed", "1e-9"}
	leaderURL, stopLeader := boot(t, append(args, "-data-dir", dir)...)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(leaderURL+"/v1/jobs", "application/json",
			strings.NewReader(`{"width": 2, "runtime": 100}`))
		if err != nil {
			t.Fatalf("POST /v1/jobs: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
		}
	}

	folURL, stopFol := boot(t, append(args,
		"-follow", leaderURL, "-follower-id", "t1", "-replica-poll", "5ms")...)
	var ri struct {
		Role       string `json:"role"`
		AppliedSeq uint64 `json:"applied_seq"`
		LeaderSeq  uint64 `json:"leader_seq"`
		LagOps     uint64 `json:"lag_ops"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSONinto(t, folURL+"/v1/debug/replication", &ri)
		if ri.AppliedSeq > 0 && ri.LagOps == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", ri)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ri.Role != "follower" {
		t.Fatalf("role = %q, want follower", ri.Role)
	}

	var q struct {
		Submitted int64 `json:"submitted"`
	}
	getJSONinto(t, folURL+"/v1/queue?min_seq="+strconv.FormatUint(ri.AppliedSeq, 10), &q)
	if q.Submitted != 3 {
		t.Fatalf("follower queue: submitted = %d, want 3", q.Submitted)
	}

	resp, err := http.Post(folURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"width": 1, "runtime": 10}`))
	if err != nil {
		t.Fatalf("POST to follower: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("write on follower: status %d, want 421", resp.StatusCode)
	}

	if err := stopFol(); err != nil {
		t.Fatalf("follower stop: %v", err)
	}
	if err := stopLeader(); err != nil {
		t.Fatalf("leader drain: %v", err)
	}
}

func TestDaemonBadFlags(t *testing.T) {
	cases := [][]string{
		{"-sched", "bogus"},
		{"-policy", "bogus"},
		{"-procs", "0"},
		{"-model", "bogus"},
		{"-model", "SDSC", "-procs", "64"}, // calibrated for 128
		{"-swf", "/nonexistent.swf"},
		{"-model", "SDSC", "-procs", "128", "-est", "bogus"},
		{"-shards", "0"},
		{"-shards", "2", "-route", "bogus"},
		{"-id-start", "0"},
		{"-id-stride", "0"},
		{"-shards", "2", "-id-stride", "2"},
		{"-follow", "http://localhost:1", "-shards", "2"},
		{"-follow", "http://localhost:1", "-model", "SDSC", "-procs", "128"},
		{"-follow", "http://localhost:1", "-replica-of", "http://localhost:2"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		err := run(context.Background(), args, &out, nil)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestFlagsTheDaemonCannotHonour: each row booted and printed its
// "listening on" line before the flags were checked in one place, most of
// them because a layer below turned the value into its default in silence.
// Every row must now fail with one line that names the flag, before a
// listener or a journal directory exists.
func TestFlagsTheDaemonCannotHonour(t *testing.T) {
	cases := []struct {
		flag string
		args []string
	}{
		{"-speed", []string{"-speed", "NaN"}},
		{"-speed", []string{"-speed", "-1"}},
		{"-speed", []string{"-speed", "+Inf"}},
		{"-load", []string{"-load", "NaN"}},
		{"-load", []string{"-model", "SDSC", "-load", "NaN"}},
		{"-ack-quorum", []string{"-ack-quorum", "-3", "-data-dir", "DIR"}},
		{"-ack-quorum", []string{"-ack-quorum", "1"}},
		{"-ack-quorum-timeout", []string{"-ack-quorum", "1", "-ack-quorum-timeout", "-2s", "-data-dir", "DIR"}},
		{"-checkpoint-ops", []string{"-checkpoint-ops", "-5", "-data-dir", "DIR"}},
		{"-checkpoint-interval", []string{"-checkpoint-interval", "-1s", "-data-dir", "DIR"}},
		{"-fsync", []string{"-fsync"}},
		{"-route", []string{"-route", "bogus"}},
		{"-replica-poll", []string{"-follow", "DIR", "-replica-poll", "-1s"}},
		{"-replica-wait", []string{"-follow", "DIR", "-replica-wait", "-1s"}},
		{"-promote-after", []string{"-follow", "DIR", "-promote-after", "-1"}},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "journal")
			args := append([]string{"-addr", "127.0.0.1:0", "-procs", "128"}, tc.args...)
			for i, a := range args {
				if a == "DIR" {
					args[i] = dir
				}
			}
			var out bytes.Buffer
			ready := make(chan string, 1)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err := run(ctx, args, &out, ready)
			if err == nil || len(ready) > 0 {
				t.Fatalf("run(%v) booted (error %v), want it refused\n%s", args, err, out.String())
			}
			if msg := err.Error(); !strings.Contains(msg, tc.flag+" ") || strings.Contains(msg, "\n") {
				t.Errorf("error %q, want one line naming %s", msg, tc.flag)
			}
			if out.Len() > 0 {
				t.Errorf("output before the refusal:\n%s", out.String())
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("journal directory touched before the refusal: %v", err)
			}
		})
	}
}

// TestRunbookRecipesParse: every schedd command line of OPERATIONS.md §1
// (Topologies 1.1–1.5) must keep passing the flag checks.
func TestRunbookRecipesParse(t *testing.T) {
	recipes := []string{
		"-procs 128 -sched easy -policy SJF",                           // 1.1
		"-procs 128 -swf trace.swf",                                    // 1.1, trace replay
		"-procs 128 -model SDSC -jobs 2000 -load 0.85",                 // 1.1, synthetic replay
		"-procs 128 -data-dir /var/lib/schedd",                         // 1.2, and 1.4's leader
		"-procs 128 -data-dir /var/lib/schedd -fsync",                  // 1.2
		"-procs 32 -shards 4 -route width -data-dir /var/lib/schedd",   // 1.3
		"-procs 32 -id-start 2 -id-stride 4 -data-dir /var/lib/schedd", // 1.3, process per shard
		"-procs 128 -addr :8081 -follow http://127.0.0.1:8080 -follower-id ro-1 -replica-wait 500ms -promote-after 3", // 1.4
		"-procs 128 -follow http://fe:8080/v1/shards/2",                                                               // 1.4, one shard of a federation
		"-procs 32 -shards 2 -data-dir /var/lib/schedd -ack-quorum 1 -ack-quorum-timeout 2s -read-route replica",      // 1.5
		"-addr :8081 -follow http://127.0.0.1:8080/v1/shards/0 -follower-id ro-0a -replica-wait 500ms",                // 1.5
		"-addr :8082 -follow http://127.0.0.1:8080/v1/shards/1 -follower-id ro-1a -replica-wait 500ms",                // 1.5
	}
	for _, r := range recipes {
		var out bytes.Buffer
		if _, err := parseOptions(strings.Fields(r), &out); err != nil {
			t.Errorf("schedd %s: %v\n%s", r, err, out.String())
		}
	}
}

func TestDaemonListenError(t *testing.T) {
	// Grab a port, then ask the daemon to bind the same one.
	url, stop := boot(t, "-procs", "8", "-speed", "0")
	addr := strings.TrimPrefix(url, "http://")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-addr", addr, "-procs", "8"}, &out, nil)
	if err == nil {
		t.Fatal("second bind on same address succeeded, want error")
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestLoadReplayNone(t *testing.T) {
	js, err := loadReplay("", "", 10, 1, 0.85, "keep", 128)
	if err != nil || js != nil {
		t.Fatalf("loadReplay with no source = (%v, %v), want (nil, nil)", js, err)
	}
}

func TestDaemonUsage(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-h"}, &out, nil)
	if err == nil {
		t.Fatal("-h returned nil error")
	}
	if !strings.Contains(out.String(), "-procs") {
		t.Errorf("usage output missing flag docs:\n%s", out.String())
	}
}
