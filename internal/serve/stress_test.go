package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestServeConcurrentReadersDuringReplay hammers every read endpoint from
// many goroutines while a CTC-model replay runs at maximum speed, then
// through the graceful drain and past it. Run under -race it is the
// concurrency acceptance gate for the lock-free read path; the assertions
// pin the snapshot contract:
//
//   - the state version is monotonically non-decreasing per observer,
//   - every snapshot is internally consistent (busy processors equal the
//     widths of the running set; pending = submitted − completed − cancelled),
//   - the memoized forecast for a version equals a fresh dry-run over the
//     same snapshot's inputs,
//   - /healthz and /metrics keep answering 200 after the loop has exited.
func TestServeConcurrentReadersDuringReplay(t *testing.T) {
	m, err := workload.NewCTC(0.9)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.Generate(400, 11)
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.ApplyEstimates(raw, workload.Actual{}, 7)

	s, err := New(Options{Procs: m.Procs, Scheduler: "easy", Audit: true, Speed: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Preload(jobs); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()

	h := s.Handler()
	get := func(path string) (*httptest.ResponseRecorder, bool) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec, rec.Code == http.StatusOK
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Health readers: version monotonicity.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				rec, ok := get("/healthz")
				if !ok {
					report("healthz: %d %s", rec.Code, rec.Body.String())
					return
				}
				var hz healthResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
					report("healthz body: %v", err)
					return
				}
				if hz.Version < last {
					report("healthz version went backwards: %d after %d", hz.Version, last)
					return
				}
				last = hz.Version
			}
		}()
	}

	// Queue readers: per-snapshot consistency.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				rec, ok := get("/v1/queue")
				if !ok {
					report("queue: %d %s", rec.Code, rec.Body.String())
					return
				}
				var q QueueResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
					report("queue body: %v", err)
					return
				}
				if q.Version < last {
					report("queue version went backwards: %d after %d", q.Version, last)
					return
				}
				last = q.Version
				busy := 0
				for _, v := range q.Running {
					busy += v.Width
				}
				if busy != q.ProcsBusy {
					report("v%d: procs_busy %d but running widths sum to %d", q.Version, q.ProcsBusy, busy)
					return
				}
				if q.ProcsBusy > q.Procs {
					report("v%d: procs_busy %d exceeds machine %d", q.Version, q.ProcsBusy, q.Procs)
					return
				}
			}
		}()
	}

	// Metrics + status readers: exercise the remaining endpoints.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if rec, ok := get("/metrics"); !ok {
				report("metrics: %d", rec.Code)
				return
			}
			id := jobs[i%len(jobs)].ID
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/jobs/%d", id), nil))
			if rec.Code != http.StatusOK {
				report("status %d: %d", id, rec.Code)
				return
			}
		}
	}()

	// Forecast checker: the memoized result for a snapshot must match a
	// fresh dry-run over that same snapshot's captured inputs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			snap := s.Current()
			cached := predContents(s.forecastFor(snap))
			fresh := sched.ForecastFromState(snap.Procs, snap.SimNow, snap.FRunning, snap.FQueued, s.pol, snap.Resv)
			if len(cached) == 0 && len(fresh) == 0 {
				continue
			}
			if !maps.Equal(cached, fresh) {
				report("v%d: cached forecast %v != fresh %v", snap.Version, cached, fresh)
				return
			}
		}
	}()

	// Consistency checks at the snapshot level (no HTTP in the way).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			snap := s.Current()
			if got := snap.Submitted - snap.Completed - snap.Cancelled; int64(snap.Pending) != got {
				report("v%d: pending %d != submitted %d - completed %d - cancelled %d",
					snap.Version, snap.Pending, snap.Submitted, snap.Completed, snap.Cancelled)
				return
			}
		}
	}()

	// Let the readers overlap the replay, then drain under fire.
	deadline := time.Now().Add(15 * time.Second)
	for s.Current().Pending > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The loop is gone; reads must keep working from the final snapshot.
	for _, path := range []string{"/healthz", "/metrics", "/v1/queue"} {
		if rec, ok := get(path); !ok {
			t.Errorf("%s after stop: %d", path, rec.Code)
		}
	}
	final := s.Current()
	if !final.Draining {
		t.Error("final snapshot should be marked draining")
	}
	if final.Pending != 0 {
		t.Errorf("final snapshot still has %d pending jobs", final.Pending)
	}

	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestForecastMemoizedPerVersion pins the core caching guarantee: polling
// the queue any number of times at an unchanged state version performs zero
// additional forecast dry-runs, and a state change invalidates exactly once.
func TestForecastMemoizedPerVersion(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 8, Scheduler: "easy"})
	defer stop()
	h := s.Handler()

	// Fill the machine, then queue two jobs so a forecast exists.
	doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 8, Runtime: 100}, nil)
	doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 4, Runtime: 50}, nil)
	doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 2, Runtime: 25}, nil)

	version := s.Current().Version
	base := s.DryRuns()
	if base == 0 {
		t.Fatal("submit responses should have forced at least one dry-run")
	}
	for i := 0; i < 50; i++ {
		var q QueueResponse
		if rec := doJSON(t, h, "GET", "/v1/queue", nil, &q); rec.Code != 200 {
			t.Fatalf("queue: %d", rec.Code)
		}
		if q.Version != version {
			t.Fatalf("state version moved during polling: %d -> %d", version, q.Version)
		}
		if q.Queued[0].PredictedStart == nil {
			t.Fatalf("queued job lost its forecast: %+v", q.Queued[0])
		}
	}
	if got := s.DryRuns(); got != base {
		t.Fatalf("50 polls at one version ran %d extra dry-runs", got-base)
	}

	// A write invalidates: the next poll recomputes, once, and polling the
	// new version is free again.
	doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 1, Runtime: 10}, nil)
	afterSubmit := s.DryRuns()
	if afterSubmit != base+1 {
		t.Fatalf("submit should cost exactly one dry-run, went %d -> %d", base, afterSubmit)
	}
	for i := 0; i < 20; i++ {
		doJSON(t, h, "GET", "/v1/queue", nil, nil)
	}
	if got := s.DryRuns(); got != afterSubmit {
		t.Fatalf("polling the new version ran %d extra dry-runs", got-afterSubmit)
	}
}

// TestBatchedSubmitsShareOnePublish checks the write-batching claim
// deterministically: with a backlog parked in the buffered mailbox, one
// runBatch call executes every command, publishes exactly one snapshot for
// the whole burst, and releases every waiter — so N concurrent submissions
// cost one rebuild and one forecast invalidation, not N. The scheduler loop
// is deliberately not running; the test goroutine plays its role.
func TestBatchedSubmitsShareOnePublish(t *testing.T) {
	s, err := New(Options{Procs: 64, Scheduler: "easy"})
	if err != nil {
		t.Fatal(err)
	}
	s.clock = NewClock(0, 1e-9, time.Now()) // what Run would set up

	const n = 32
	before := s.Current().Version
	cmds := make([]*command, n)
	for i := range cmds {
		cmds[i] = &command{
			fn:   func() { _, _ = s.submitJob(SubmitRequest{Width: 1, Runtime: 1000}) },
			done: make(chan struct{}),
		}
	}
	// Park all but the first in the mailbox, the way a burst of blocked
	// HTTP writers would, then hand the first to the loop body.
	for _, c := range cmds[1:] {
		s.cmds <- c
	}
	s.runBatch(cmds[0])

	for i, c := range cmds {
		select {
		case <-c.done:
		default:
			t.Fatalf("command %d not released", i)
		}
	}
	snap := s.Current()
	if snap.Submitted != n {
		t.Fatalf("submitted %d, want %d", snap.Submitted, n)
	}
	if got := snap.Version - before; got != 1 {
		t.Fatalf("%d submissions produced %d publications, want 1 shared publish", n, got)
	}
}

// TestConcurrentSubmitsReadTheirOwnWrites is the HTTP-level companion: no
// matter how the goroutines interleave with the loop's batching, every
// submitter's 201 response must describe its own job (read-your-writes
// through the snapshot), and the final snapshot must account for all of
// them.
func TestConcurrentSubmitsReadTheirOwnWrites(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 4, Scheduler: "easy"})
	defer stop()
	h := s.Handler()

	const n = 32
	var wg sync.WaitGroup
	views := make([]JobView, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 1, Runtime: 1000}, &views[i])
			codes[i] = rec.Code
		}()
	}
	wg.Wait()
	seen := make(map[int]bool, n)
	for i := range views {
		if codes[i] != 201 {
			t.Fatalf("submit %d: %d", i, codes[i])
		}
		if views[i].ID == 0 || seen[views[i].ID] {
			t.Fatalf("submit %d: bad or duplicate id in response: %+v", i, views[i])
		}
		seen[views[i].ID] = true
		if views[i].State != "running" && views[i].State != "queued" {
			t.Fatalf("submit %d: unexpected state %q", i, views[i].State)
		}
	}
	if snap := s.Current(); snap.Submitted != n {
		t.Fatalf("submitted %d, want %d", snap.Submitted, n)
	}
}

// TestForecastDebugSplitsFallbacksByReason drives one forecast down each
// path an operator can provoke from outside and reads the counts back from
// GET /v1/debug/forecast: the total is what DryRuns reports, and every full
// dry-run is filed under the reason extendForecast (or forecastFor) gave.
func TestForecastDebugSplitsFallbacksByReason(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 8, Scheduler: "easy", Policy: "SJF"})
	defer stop()
	h := s.Handler()
	submit := func(width int, runtime int64) (v JobView) {
		t.Helper()
		if rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: width, Runtime: runtime}, &v); rec.Code != 201 {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
		}
		return v
	}
	want := map[string]int64{}
	for _, name := range fcFallbackNames[fcExtended+1:] {
		want[name] = 0
	}

	submit(8, 1000)    // pins the machine; nothing queued, nothing forecast
	a := submit(4, 50) // the first forecast has nothing to extend
	want["no_predecessor"]++
	submit(2, 100) // longer than the tail: one placement
	old := s.Current()
	submit(1, 10) // SJF queues it ahead of both, so the old queue is no prefix
	want["queue_not_prefix"]++
	if rec := doJSON(t, h, "DELETE", fmt.Sprintf("/v1/jobs/%d", a.ID), nil, nil); rec.Code != 204 {
		t.Fatalf("cancel: %d", rec.Code)
	}
	doJSON(t, h, "GET", "/v1/queue", nil, nil)
	want["queue_not_prefix"]++
	s.forecastFor(old) // a reader still holding the version before last
	want["stale_snapshot"]++

	var got ForecastInfo
	if rec := doJSON(t, h, "GET", "/v1/debug/forecast", nil, &got); rec.Code != 200 {
		t.Fatalf("debug/forecast: %d", rec.Code)
	}
	if got.Extends != 1 || !maps.Equal(got.Fallbacks, want) {
		t.Fatalf("extends %d, fallbacks %v; want 1, %v", got.Extends, got.Fallbacks, want)
	}
	if got.DryRuns != 5 || got.DryRuns != s.DryRuns() {
		t.Fatalf("dry_runs %d, DryRuns() %d, want 5: one extension and four fallbacks", got.DryRuns, s.DryRuns())
	}
}
