package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestClockTimed(t *testing.T) {
	start := time.Now()
	c := NewClock(100, 2.0, start)
	if c.Max() {
		t.Fatal("speed 2 is not max mode")
	}
	if got := c.Now(start.Add(3 * time.Second)); got != 106 {
		t.Fatalf("Now = %d, want 106", got)
	}
	if got := c.WallUntil(104, start); got != 2*time.Second {
		t.Fatalf("WallUntil = %v, want 2s", got)
	}
	if got := c.WallUntil(90, start); got != 0 {
		t.Fatalf("WallUntil past = %v, want 0", got)
	}
}

func TestClockMax(t *testing.T) {
	c := NewClock(7, 0, time.Now())
	if !c.Max() {
		t.Fatal("speed 0 should be max mode")
	}
	if c.WallUntil(1<<40, time.Now()) != 0 {
		t.Fatal("max clock never sleeps")
	}
}

// startServer runs s in the background and returns a cancel-and-wait
// function handing back Run's error.
func startServer(t *testing.T, s *Server) (stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	return func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("server did not stop")
			return nil
		}
	}
}

// frozenServer builds a server whose virtual clock effectively never
// advances on its own (speed ≈ 0 but timed), so tests control the
// schedule purely through submissions.
func frozenServer(t *testing.T, opts Options) (*Server, func() error) {
	t.Helper()
	if opts.Speed == 0 {
		opts.Speed = 1e-9
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, startServer(t, s)
}

func doJSON(t *testing.T, h http.Handler, method, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad body %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func TestServiceSubmitForecastCancel(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 8, Scheduler: "easy", Policy: "FCFS", Audit: true})
	h := s.Handler()

	var j1, j2, j3 JobView
	if rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 8, Runtime: 100}, &j1); rec.Code != 201 {
		t.Fatalf("submit 1: %d %s", rec.Code, rec.Body.String())
	}
	if j1.State != "running" || j1.Start == nil || *j1.Start != 0 {
		t.Fatalf("job 1 should start immediately: %+v", j1)
	}
	if rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 8, Runtime: 50, Estimate: 60}, &j2); rec.Code != 201 {
		t.Fatalf("submit 2: %d", rec.Code)
	}
	if j2.State != "queued" || j2.PredictedStart == nil || *j2.PredictedStart != 100 {
		t.Fatalf("job 2 should queue with forecast 100: %+v", j2)
	}
	if rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 4, Runtime: 10}, &j3); rec.Code != 201 {
		t.Fatalf("submit 3: %d", rec.Code)
	}
	// The dry-run stacks j3 behind j2's full-width reservation.
	if j3.PredictedStart == nil || *j3.PredictedStart != 160 {
		t.Fatalf("job 3 forecast: %+v", j3)
	}

	// Width wider than the machine is a client error.
	if rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 9, Runtime: 10}, nil); rec.Code != 400 {
		t.Fatalf("too-wide submit: %d", rec.Code)
	}

	// Cancelling the queued j2 moves j3's forecast up.
	if rec := doJSON(t, h, "DELETE", fmt.Sprintf("/v1/jobs/%d", j2.ID), nil, nil); rec.Code != 204 {
		t.Fatalf("cancel 2: %d", rec.Code)
	}
	var st JobView
	if rec := doJSON(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", j3.ID), nil, &st); rec.Code != 200 {
		t.Fatalf("stat 3: %d", rec.Code)
	}
	if st.PredictedStart == nil || *st.PredictedStart != 100 {
		t.Fatalf("job 3 forecast after cancel: %+v", st)
	}

	// Running and unknown jobs are not cancellable.
	if rec := doJSON(t, h, "DELETE", fmt.Sprintf("/v1/jobs/%d", j1.ID), nil, nil); rec.Code != 409 {
		t.Fatalf("cancel running: %d", rec.Code)
	}
	if rec := doJSON(t, h, "DELETE", "/v1/jobs/999", nil, nil); rec.Code != 404 {
		t.Fatalf("cancel unknown: %d", rec.Code)
	}
	if rec := doJSON(t, h, "GET", "/v1/jobs/999", nil, nil); rec.Code != 404 {
		t.Fatalf("stat unknown: %d", rec.Code)
	}

	var q QueueResponse
	if rec := doJSON(t, h, "GET", "/v1/queue", nil, &q); rec.Code != 200 {
		t.Fatalf("queue: %d", rec.Code)
	}
	if q.ProcsBusy != 8 || len(q.Running) != 1 || len(q.Queued) != 1 || q.Cancelled != 1 {
		t.Fatalf("queue snapshot: %+v", q)
	}

	var hz HealthResponse
	if rec := doJSON(t, h, "GET", "/healthz", nil, &hz); rec.Code != 200 || hz.Status != "ok" {
		t.Fatalf("healthz: %d %+v", rec.Code, hz)
	}

	rec := doJSON(t, h, "GET", "/metrics", nil, nil)
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	for _, want := range []string{
		"schedd_jobs_submitted_total 3",
		"schedd_jobs_cancelled_total 1",
		"schedd_jobs_rejected_total 1",
		"schedd_queue_depth 1",
		"schedd_procs_busy 8",
		"schedd_audit_violations 0",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, rec.Body.String())
		}
	}

	// Graceful drain finishes the two surviving jobs with a clean audit.
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ps := s.sess.Placements()
	if len(ps) != 2 {
		t.Fatalf("placements after drain: %+v", ps)
	}
	if ps[1].Job.ID != j3.ID || ps[1].Start != 100 {
		t.Fatalf("j3 placement: %+v", ps[1])
	}

	// The service refuses work after shutdown.
	if rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 1, Runtime: 1}, nil); rec.Code != 503 {
		t.Fatalf("submit after stop: %d", rec.Code)
	}
}

func TestServiceCompletedJobReportsSlowdown(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 4, Scheduler: "conservative", Audit: true})
	h := s.Handler()
	var v JobView
	doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 4, Runtime: 30}, &v)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// Query the drained server state directly (the HTTP surface is down).
	info, ok := s.sess.Info(v.ID)
	if !ok || info.State != sim.StateDone {
		t.Fatalf("job not done after drain: %+v", info)
	}
	view := makeView(info, s.opts.Thresholds)
	if view.Slowdown == nil || *view.Slowdown != 1 {
		t.Fatalf("no-wait job should have slowdown 1: %+v", view)
	}
}

func TestServiceBadRequests(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 4})
	defer stop()
	h := s.Handler()
	if rec := doJSON(t, h, "GET", "/v1/jobs/xyz", nil, nil); rec.Code != 400 {
		t.Fatalf("bad id: %d", rec.Code)
	}
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 400 {
		t.Fatalf("bad JSON: %d", rec.Code)
	}
	if rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 0, Runtime: 5}, nil); rec.Code != 400 {
		t.Fatalf("zero width: %d", rec.Code)
	}
}

// TestServiceReplayEquivalence is the end-to-end acceptance gate: replaying
// a synthetic workload through the daemon under an as-fast-as-possible
// clock must place every job exactly where the offline batch run does, for
// every scheduler kind, with the audit wrapper silent.
func TestServiceReplayEquivalence(t *testing.T) {
	m, err := workload.NewSDSC(0.9)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.Generate(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.ApplyEstimates(raw, workload.Actual{}, 4)
	pol, err := sched.PolicyByName("FCFS")
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range sched.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			mk, err := sched.MakerFor(kind, pol)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(sim.Machine{Procs: m.Procs}, jobs, mk(m.Procs), nil)
			if err != nil {
				t.Fatal(err)
			}
			byID := make(map[int]sim.Placement, len(want))
			for _, p := range want {
				byID[p.Job.ID] = p
			}

			s, err := New(Options{Procs: m.Procs, Scheduler: kind, Audit: true, Speed: -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Preload(jobs); err != nil {
				t.Fatal(err)
			}
			stop := startServer(t, s)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// The max-speed clock drains the replay almost immediately;
			// poll health until nothing is pending.
			deadline := time.Now().Add(10 * time.Second)
			for {
				var hz HealthResponse
				getJSON(t, ts.URL+"/healthz", &hz)
				if hz.Pending == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replay did not finish: %+v", hz)
				}
				time.Sleep(10 * time.Millisecond)
			}

			for _, j := range jobs {
				var v JobView
				getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, j.ID), &v)
				p := byID[j.ID]
				if v.State != "done" || v.Start == nil || v.End == nil {
					t.Fatalf("job %d not done: %+v", j.ID, v)
				}
				if *v.Start != p.Start || *v.End != p.End {
					t.Fatalf("job %d: daemon (%d,%d) vs batch (%d,%d)",
						j.ID, *v.Start, *v.End, p.Start, p.End)
				}
			}

			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(body), "schedd_audit_violations 0") {
				t.Fatalf("audit violations reported:\n%s", body)
			}
			if err := stop(); err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Procs: 0}); err == nil {
		t.Fatal("want error for zero procs")
	}
	if _, err := New(Options{Procs: 4, Scheduler: "nope"}); err == nil {
		t.Fatal("want error for unknown scheduler")
	}
	if _, err := New(Options{Procs: 4, Policy: "nope"}); err == nil {
		t.Fatal("want error for unknown policy")
	}
}

// TestDebugMountsPprof checks that Options.Debug exposes the runtime
// profiler on the API mux — and that without it the endpoints 404, since
// they leak stacks and heap contents.
func TestDebugMountsPprof(t *testing.T) {
	on, err := New(Options{Procs: 4, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	on.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("debug on: GET /debug/pprof/ = %d, want 200", rec.Code)
	}

	off, err := New(Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 404 {
		t.Fatalf("debug off: GET /debug/pprof/ = %d, want 404", rec.Code)
	}
}
