package fed

// Race/stress layer: the federation's read surface hammered from many
// goroutines while every shard replays a trace at full speed. Run under
// -race (make fed-race, the fed-race CI job) this proves the scatter-gather
// path shares no unsynchronized state with the shard write loops; the
// assertions prove the merge's ordering contract — per-shard versions only
// grow, the merged version only grows, and gathering never wedges a shard's
// drain.

import (
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestFedConcurrentReadStress(t *testing.T) {
	const shards = 4
	jobs, procs := sdscJobs(t, 400, 5)
	f, err := New(Options{Shards: shards, Route: "width", Shard: serve.Options{Procs: procs, Scheduler: "easy", Policy: "FCFS", Audit: true, Speed: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Preload(jobs); err != nil {
		t.Fatal(err)
	}
	stop := startFedRun(t, f)

	var (
		wg      sync.WaitGroup
		halt    atomic.Bool
		gathers atomic.Int64
	)
	fail := make(chan string, 16)
	h := f.Handler()

	// Per-shard version monotonicity, observed through the status gather.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := make([]uint64, shards)
		for !halt.Load() {
			rows := f.Status()
			for i, r := range rows {
				if r.Shard != i {
					select {
					case fail <- "status rows out of shard order":
					default:
					}
					return
				}
				if r.Version < last[i] {
					select {
					case fail <- "per-shard version went backwards":
					default:
					}
					return
				}
				last[i] = r.Version
			}
			gathers.Add(1)
		}
	}()

	// Merged version monotonicity through the queue endpoint.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for !halt.Load() {
			q := f.Queue()
			if q.Version < last {
				select {
				case fail <- "merged version went backwards":
				default:
				}
				return
			}
			last = q.Version
			gathers.Add(1)
		}
	}()

	// HTTP readers: the endpoints a dashboard would poll during a drain.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/v1/queue", "/metrics", "/healthz", "/v1/shards"}
			for i := 0; !halt.Load(); i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", paths[i%len(paths)], nil))
				if rec.Code != 200 {
					select {
					case fail <- "read endpoint failed mid-drain: " + rec.Body.String():
					default:
					}
					return
				}
				gathers.Add(1)
			}
		}()
	}

	// MergedSnapshot consistency: capacity is constant, counters only grow.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastDone int64
		for !halt.Load() {
			snap := f.MergedSnapshot()
			if snap.Procs != shards*procs {
				select {
				case fail <- "merged capacity changed mid-run":
				default:
				}
				return
			}
			if snap.Completed < lastDone {
				select {
				case fail <- "merged completed counter went backwards":
				default:
				}
				return
			}
			lastDone = snap.Completed
			gathers.Add(1)
		}
	}()

	// The replay must drain while the readers hammer: if a gather could
	// block a shard's write loop, this times out instead of finishing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if f.MergedSnapshot().Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			halt.Store(true)
			wg.Wait()
			t.Fatal("replay did not drain under read load")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// 400 jobs drain in milliseconds; on a busy two-core machine that can be
	// before any reader was scheduled, so let at least one gather finish.
	for gathers.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	halt.Store(true)
	wg.Wait()
	close(fail)
	if msg, ok := <-fail; ok {
		t.Fatal(msg)
	}

	snap := f.MergedSnapshot()
	if got := snap.Completed + snap.Cancelled; got != int64(len(jobs)) {
		t.Fatalf("drained %d of %d jobs", got, len(jobs))
	}
	if snap.AuditViolations != 0 {
		t.Fatalf("audit violations: %d", snap.AuditViolations)
	}
	if gathers.Load() == 0 {
		t.Fatal("stress readers never completed a gather")
	}
	stop()
}
