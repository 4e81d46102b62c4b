package fed

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/serve"
)

// drainedFed runs a federation of 16-processor shards that has replayed and
// finished history one-second jobs, so its shards hold that many jobs of
// history and nothing waiting or running.
func drainedFed(tb testing.TB, shards, history int) (*Federation, func()) {
	tb.Helper()
	f, err := New(Options{Shards: shards, Shard: serve.Options{Procs: 16, Scheduler: "easy", Policy: "FCFS", Speed: -1}})
	if err != nil {
		tb.Fatal(err)
	}
	jobs := make([]*job.Job, history)
	for i := range jobs {
		jobs[i] = &job.Job{ID: i + 1, Arrival: int64(i), Runtime: 1, Estimate: 1, Width: 1, User: i % 16}
	}
	if err := f.Preload(jobs); err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	stop := func() {
		cancel()
		<-done
		f.Close()
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var completed int64
		for _, sh := range f.Shards() {
			completed += sh.Current().Completed
		}
		if completed == int64(history) {
			return f, stop
		}
		if time.Now().After(deadline) {
			stop()
			tb.Fatalf("%d of %d jobs of history completed", completed, history)
		}
	}
}

// TestFedScrapeCostFlatInHistory pins what a merged /healthz and /metrics
// read: the shards' counters, running sets and queues, never the jobs they
// have finished. A 2-shard federation answers each in the same number of
// allocations behind 20 000 jobs of history as behind 1 000.
func TestFedScrapeCostFlatInHistory(t *testing.T) {
	measure := func(history int) map[string]float64 {
		f, stop := drainedFed(t, 2, history)
		defer stop()
		h := f.Handler()
		allocs := make(map[string]float64)
		for _, path := range []string{"/healthz", "/metrics"} {
			allocs[path] = testing.AllocsPerRun(50, func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
				}
			})
		}
		return allocs
	}
	small, large := measure(1_000), measure(20_000)
	for _, path := range []string{"/healthz", "/metrics"} {
		t.Logf("GET %s: %.0f allocs behind 1k jobs of history, %.0f behind 20k", path, small[path], large[path])
		if large[path] > 1.5*small[path] {
			t.Errorf("GET %s allocates %.0f objects behind 20k jobs of history, %.0f behind 1k; want the same", path, large[path], small[path])
		}
	}
}

// TestFedLeaderRoutingIgnoresMinSeq pins what a leader-routed front end does
// with a ?min_seq= read barrier: nothing, as a bare daemon does. A malformed
// floor and one past every journal answer what the read without one
// answers, at one shard and at two.
func TestFedLeaderRoutingIgnoresMinSeq(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			f, stop := frozenFed(t, Options{Shards: shards, DataDir: t.TempDir(), Shard: serve.Options{Procs: 8, Scheduler: "easy", Policy: "FCFS"}})
			defer stop()
			h := f.Handler()
			var v serve.JobView
			if rec := doJSON(t, h, "POST", "/v1/jobs", serve.SubmitRequest{Width: 1, Runtime: 60}, &v); rec.Code != 201 || rec.Header().Get("X-Schedd-Seq") == "" {
				t.Fatalf("submit: %d %s (seq %q)", rec.Code, rec.Body.String(), rec.Header().Get("X-Schedd-Seq"))
			}
			for _, path := range []string{"/v1/queue", "/healthz", "/metrics", fmt.Sprintf("/v1/jobs/%d", v.ID)} {
				wantCode, want := body(t, h, "GET", path)
				if wantCode != 200 {
					t.Fatalf("GET %s: %d %s", path, wantCode, want)
				}
				for _, floor := range []string{"nope", "18446744073709551615"} {
					if code, got := body(t, h, "GET", path+"?min_seq="+floor); code != wantCode || got != want {
						t.Fatalf("GET %s?min_seq=%s = %d %s, want %d %s", path, floor, code, got, wantCode, want)
					}
				}
			}
		})
	}
}
