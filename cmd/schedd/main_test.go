package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
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
		"-sched", "conservative", "-policy", "SJF", "-speed", "-1")

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
		"-shards", "2", "-route", "width", "-speed", "-1")

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

func TestDaemonListenError(t *testing.T) {
	// Grab a port, then ask the daemon to bind the same one.
	url, stop := boot(t, "-procs", "8", "-speed", "-1")
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
