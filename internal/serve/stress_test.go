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

	"repro/internal/job"
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
				var hz HealthResponse
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

// TestStaleReaderForecast pins the forecast of a reader that holds version
// v after the chain has moved on to v+k: it is the full dry-run over v's own
// inputs, memoized in v's slot, so two concurrent readers of v add one
// dry-run between them, not two, and the chain's head stays at v+k, where
// the next arrival still extends it.
func TestStaleReaderForecast(t *testing.T) {
	s, err := New(Options{Procs: 8, Scheduler: "easy", Policy: "FCFS"})
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	arrive := func(width int, runtime int64) *Snapshot {
		t.Helper()
		id++
		if err := s.sess.Submit(&job.Job{ID: id, Runtime: runtime, Estimate: runtime, Width: width}); err != nil {
			t.Fatal(err)
		}
		s.ctr.submitted++
		if err := s.sess.AdvanceTo(0); err != nil {
			t.Fatal(err)
		}
		s.publish()
		return s.Current()
	}
	arrive(8, 100000) // pins the machine
	arrive(4, 50)
	old := arrive(2, 100)
	var head *Snapshot
	for k := 0; k < 3; k++ {
		head = arrive(1+k, int64(200+k))
		s.forecastFor(head)
	}
	if s.fcHead.Load() != head {
		t.Fatalf("the chain's head is v%d, want v%d", s.fcHead.Load().Version, head.Version)
	}

	base, stale := s.DryRuns(), s.ins.fc[fcStaleSnapshot].Load()
	var wg sync.WaitGroup
	preds := make([]*forecastPred, 2)
	for r := range preds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			preds[r] = s.forecastFor(old)
		}()
	}
	wg.Wait()
	want := sched.ForecastFromState(old.Procs, old.SimNow, old.FRunning, old.FQueued, s.pol, old.Resv)
	for r, p := range preds {
		if p != &old.fc.pred || !maps.Equal(predContents(p), want) {
			t.Fatalf("reader %d of v%d: forecast %v in its own slot %v, want %v", r, old.Version, predContents(p), p == &old.fc.pred, want)
		}
	}
	if got := s.DryRuns() - base; got != 1 || s.ins.fc[fcStaleSnapshot].Load() != stale+1 {
		t.Fatalf("two readers of v%d ran %d dry-runs, want one stale-snapshot dry-run", old.Version, got)
	}
	if s.fcHead.Load() != head || old.fc.seed.Load() != nil {
		t.Fatalf("after the stale read the chain's head is v%d (want v%d), and v%d kept a seed: %v",
			s.fcHead.Load().Version, head.Version, old.Version, old.fc.seed.Load() != nil)
	}
	s.forecastFor(old)
	extends := s.ins.fc[fcExtended].Load()
	s.forecastFor(arrive(1, 300))
	if s.DryRuns() != base+2 || s.ins.fc[fcExtended].Load() != extends+1 {
		t.Fatalf("a reread of v%d and the next arrival's forecast: %d dry-runs, %d extensions; want 1 and 1",
			old.Version, s.DryRuns()-base-1, s.ins.fc[fcExtended].Load()-extends)
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
		cmds[i] = commands.Get().(*command)
		cmds[i].req = SubmitRequest{Width: 1, Runtime: 1000}
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
		if c.err != nil || c.id != i+1 {
			t.Fatalf("command %d: job %d, %v; want job %d", i, c.id, c.err, i+1)
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
// GET /v1/debug/stats: the total is what DryRuns reports, and every full
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
	for _, name := range []string{"no_predecessor", "clock_moved", "running_changed", "queue_not_prefix",
		"reservation_changed", "seed_consumed", "arrival_before_tail", "stale_snapshot"} {
		want[name] = 0
	}

	submit(8, 1000)    // pins the machine; nothing queued, nothing forecast
	a := submit(4, 50) // the first forecast has nothing to extend
	want["no_predecessor"]++
	b := submit(2, 100) // longer than the tail: one placement
	submit(1, 10)       // SJF queues it ahead of both, so the old queue is no prefix
	want["queue_not_prefix"]++
	cancel := func(id int) {
		t.Helper()
		if rec := doJSON(t, h, "DELETE", fmt.Sprintf("/v1/jobs/%d", id), nil, nil); rec.Code != 204 {
			t.Fatalf("cancel: %d", rec.Code)
		}
	}
	cancel(a.ID)
	old := s.Current() // a version nobody has asked the forecast of
	cancel(b.ID)
	doJSON(t, h, "GET", "/v1/queue", nil, nil)
	want["queue_not_prefix"]++
	s.forecastFor(old) // a reader still holding the version before last
	want["stale_snapshot"]++

	body := debugStats(t, h)
	extends, dryRuns, got := int64(body.num(t, "counters.forecast_extends")), s.DryRuns(), map[string]int64{}
	total := extends
	for name := range want {
		got[name] = int64(body.num(t, "counters.forecast_"+name))
		total += got[name]
	}
	if extends != 1 || !maps.Equal(got, want) {
		t.Fatalf("extends %d, fallbacks %v; want 1, %v", extends, got, want)
	}
	if total != 5 || dryRuns != total {
		t.Fatalf("extends and fallbacks sum to %d, DryRuns() %d, want 5: one extension and four fallbacks", total, dryRuns)
	}
}

// TestForecastDebugTimesFullDryRuns reads the full dry-runs' timing from
// GET /v1/debug/stats on a daemon with 300 jobs queued behind one that
// pins the machine: a cancel followed by a status read adds one timed
// dry-run, and the count stays the sum of the fallbacks.
func TestForecastDebugTimesFullDryRuns(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 64, Scheduler: "easy", Policy: "FCFS"})
	defer stop()
	h := s.Handler()
	type fullRuns struct{ Full, FullUS, FullMaxUS float64 }
	info := func() fullRuns {
		t.Helper()
		body := debugStats(t, h)
		got := fullRuns{body.num(t, "counters.forecast_full.count"), body.num(t, "counters.forecast_full.sum_us"), body.num(t, "counters.forecast_full.max_us")}
		fallbacks := float64(s.DryRuns()) - body.num(t, "counters.forecast_extends")
		if got.Full != fallbacks || got.FullMaxUS > got.FullUS {
			t.Fatalf("%.0f full dry-runs, %.0f fallbacks, %.3f µs in all, %.3f µs at most", got.Full, fallbacks, got.FullUS, got.FullMaxUS)
		}
		return got
	}
	var queued []JobView
	for i := 0; i <= 300; i++ {
		width, runtime := 1+i*7%64, int64(600+i*131%3000)
		if i == 0 {
			width, runtime = 64, 100000 // pins the machine
		}
		var v JobView
		if rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: width, Runtime: runtime}, &v); rec.Code != 201 {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body.String())
		}
		queued = append(queued, v)
	}
	doJSON(t, h, "GET", "/v1/queue", nil, nil)
	before := info()
	if rec := doJSON(t, h, "DELETE", fmt.Sprintf("/v1/jobs/%d", queued[150].ID), nil, nil); rec.Code != 204 {
		t.Fatalf("cancel: %d", rec.Code)
	}
	var v JobView
	if doJSON(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", queued[300].ID), nil, &v); v.PredictedStart == nil {
		t.Fatalf("status read of queued job %d carries no forecast: %+v", queued[300].ID, v)
	}
	after := info()
	// The longest run is at least this one; 1 ns of slack for the µs rounding.
	if after.Full != before.Full+1 || after.FullUS <= before.FullUS || after.FullMaxUS < after.FullUS-before.FullUS-1e-3 {
		t.Fatalf("cancel and status read: %+v, then %+v; want one more full dry-run, timed", before, after)
	}
}

// TestPassesDebugCountsByKind drives a depth:4 daemon through arrivals that
// sort behind its last protected job, a withdrawal behind it and then the
// drain's completions, and reads GET /v1/debug/stats after each stage; the
// plan profile's search and edit counters must be published too.
func TestPassesDebugCountsByKind(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 8, Scheduler: "depth:4", Policy: "FCFS"})
	h := s.Handler()
	type passCounts struct{ Skipped, Settled, Full int64 }
	passes := func() passCounts {
		t.Helper()
		body := debugStats(t, h)
		if body.Scheduler != "DepthK(FCFS,k=4)" {
			t.Fatalf("scheduler %q", body.Scheduler)
		}
		return passCounts{Skipped: int64(body.num(t, "counters.passes_skipped")),
			Settled: int64(body.num(t, "counters.passes_settled")), Full: int64(body.num(t, "counters.passes_full"))}
	}
	check := func(stage string, want passCounts) {
		t.Helper()
		if got := passes(); got != want {
			t.Fatalf("%s: %+v, want %+v", stage, got, want)
		}
	}
	var last JobView
	for i := 0; i < 7; i++ {
		width := 4
		if i == 0 {
			width = 8 // pins the machine until t=100
		}
		if rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: width, Runtime: 100}, &last); rec.Code != 201 {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	// The first pass starts the pinning job; each of the six arrivals sorts
	// behind the last protected job (the first four are granted plan slots,
	// the last two are not) and is settled on its own.
	check("arrivals", passCounts{Settled: 6, Full: 1})
	// The last arrival holds no plan slot, so its withdrawal keeps the memo
	// and the same instant's pass is skipped.
	if rec := doJSON(t, h, "DELETE", fmt.Sprintf("/v1/jobs/%d", last.ID), nil, nil); rec.Code != 204 {
		t.Fatalf("cancel: %d", rec.Code)
	}
	check("withdrawal", passCounts{Skipped: 1, Settled: 6, Full: 1})
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// Every completion frees capacity under the plan and forces a full
	// pass; no arrival is left to settle.
	if got := passes(); got.Skipped != 1 || got.Settled != 6 || got.Full < 2 {
		t.Fatalf("after the drain: %+v, want more full passes and the rest unchanged", got)
	}
	// The plan profile's work is published beside the passes.
	body := debugStats(t, h)
	for _, key := range []string{"counters.search_calls", "counters.search_points", "counters.adjust_calls", "counters.adjust_points"} {
		if body.num(t, key) <= 0 {
			t.Fatalf("%s is %v after a drain that planned every job", key, body.num(t, key))
		}
	}
}
