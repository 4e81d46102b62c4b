package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/wal"
)

// benchServer builds a running daemon with a realistically busy state — a
// full machine plus a standing queue — so read benchmarks measure rendering
// against non-trivial snapshots. The virtual clock is effectively frozen, so
// the state (and therefore the snapshot version) holds still while the
// benchmark loops.
func benchServer(b *testing.B) (*Server, http.Handler) {
	b.Helper()
	s, err := New(Options{Procs: 64, Scheduler: "easy", Speed: 1e-9})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	b.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			b.Fatal("server did not stop")
		}
	})
	h := s.Handler()
	submit := func(width int, runtime int64) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/jobs",
			strings.NewReader(fmt.Sprintf(`{"width":%d,"runtime":%d}`, width, runtime)))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			b.Fatalf("seed submit: %d %s", rec.Code, rec.Body.String())
		}
	}
	// Fill the machine, then park a deep standing queue behind it — the
	// regime where a per-request snapshot rebuild and forecast dry-run
	// would actually cost something.
	submit(64, 100000)
	for i := 0; i < 256; i++ {
		submit(1+(i%16)*4, int64(1000+100*i))
	}
	return s, h
}

// benchGet drives one endpoint from parallel client goroutines, the shape
// of real scrape/poll traffic.
func benchGet(b *testing.B, h http.Handler, path string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("GET %s: %d", path, rec.Code)
			}
		}
	})
}

// The ServeRead benchmarks measure the lock-free snapshot read path. The
// pre-snapshot design — every GET through the scheduler mailbox — was
// removed with its option.

func BenchmarkServeReadQueue(b *testing.B) {
	_, h := benchServer(b)
	benchGet(b, h, "/v1/queue")
}

func BenchmarkServeReadStatus(b *testing.B) {
	_, h := benchServer(b)
	benchGet(b, h, "/v1/jobs/17")
}

func BenchmarkServeReadMetrics(b *testing.B) {
	_, h := benchServer(b)
	benchGet(b, h, "/metrics")
}

// BenchmarkForecastCached measures what repeated ShowStart polling costs at
// an unchanged state version: a cache hit on the memoized forecast.
// BenchmarkForecastUncached is the same question answered the old way — a
// full conservative-backfill dry-run per request.

func BenchmarkForecastCached(b *testing.B) {
	s, _ := benchServer(b)
	snap := s.Current()
	if s.forecastFor(snap) == nil {
		b.Fatal("no forecast for seeded queue")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.forecastFor(snap) == nil {
			b.Fatal("lost forecast")
		}
	}
}

// snapshotBenchServer builds a server (never Run — the bench goroutine owns
// the state, like the scheduler loop would) with a deep completed-job
// history plus a standing queue: the regime where the old full rebuild paid
// O(total jobs ever) per publication while the state a client cares about
// is only the queue. touch makes one job's worth of publishable change: a
// submission and the cancellation of a job from the middle of the queue, in
// turn, so the queue stays depth deep however long the caller loops.
func snapshotBenchServer(tb testing.TB, history, depth int) (s *Server, touch func()) {
	tb.Helper()
	s, err := New(Options{Procs: 64, Scheduler: "easy"})
	if err != nil {
		tb.Fatal(err)
	}
	id := 0
	now := int64(0)
	submit := func(width int, runtime int64) {
		id++
		if err := s.sess.Submit(&job.Job{ID: id, Arrival: now, Runtime: runtime, Estimate: runtime, Width: width}); err != nil {
			tb.Fatal(err)
		}
		s.ctr.submitted++
	}
	arrive := func() {
		if err := s.sess.AdvanceTo(now); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < history; i++ {
		submit(64, 10)
		now += 10
	}
	arrive()
	submit(64, 1<<40) // blocker: the machine stays full from here on
	for i := 0; i < depth; i++ {
		submit(1+(i%16)*4, int64(1000+100*i))
	}
	arrive()
	s.publish()
	// Every ID from victim up is queued: submissions extend the tail and
	// cancellations walk victim forward, half a queue behind it.
	calls, victim := 0, id-depth/2
	touch = func() {
		if calls++; calls%2 == 1 {
			submit(1+(id%16)*4, int64(1000+100*(id%depth)))
			arrive()
		} else if victim++; s.sess.Cancel(victim) {
			s.ctr.cancelled++
		} else {
			tb.Fatalf("mid-queue job %d is not cancellable", victim)
		}
	}
	return s, touch
}

// The Snapshot benchmarks are paired like the ServeRead ones: Full is the
// from-scratch rebuild (every job ever re-rendered), Delta the published
// path, one op = one touched job (see snapshotBenchServer) and the
// publication that carries it. Delta runs behind 1 000 and behind 100 000
// jobs of history: a publication costs O(touched), so the pair's ns/op and
// B/op must agree within 1.5× (PERFORMANCE.md §6).

func BenchmarkSnapshotFullRebuild(b *testing.B) {
	s, _ := snapshotBenchServer(b, 20000, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := s.buildSnapshot(); snap.Jobs.Len() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func BenchmarkSnapshotDeltaPublish(b *testing.B) {
	for _, history := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("history%dk", history/1000), func(b *testing.B) {
			s, touch := snapshotBenchServer(b, history, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				touch()
				s.publish()
			}
		})
	}
}

func BenchmarkForecastUncached(b *testing.B) {
	s, _ := benchServer(b)
	snap := s.Current()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sched.ForecastFromState(snap.Procs, snap.SimNow, snap.FRunning, snap.FQueued, s.pol, snap.Resv)
		if m == nil {
			b.Fatal("no forecast")
		}
	}
}

// writeBurstServer is the leader write path in the benchmark's churn
// shape: a running journaling daemon whose 430 processors one job holds,
// with 512 jobs queued behind it. It returns the server, the random source
// that drew the queue (burstJob draws from it) and the queued jobs' IDs.
func writeBurstServer(tb testing.TB) (s *Server, r *stats.RNG, live []int) {
	const procs, depth = 430, 512
	s, err := New(Options{
		Procs: procs, Scheduler: "easy", Policy: "FCFS", Audit: true, Speed: 1e-9,
		Durability: DurabilityOptions{Dir: tb.TempDir(), CheckpointEvery: 24 * time.Hour},
	})
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	tb.Cleanup(func() {
		cancel()
		<-done
		s.Close()
	})
	r = stats.NewRNG(1)
	if _, err := s.Submit(SubmitRequest{Width: procs, Runtime: 1_000_000, User: 1}); err != nil {
		tb.Fatal(err)
	}
	for range depth {
		v, err := s.Submit(burstJob(r))
		if err != nil {
			tb.Fatal(err)
		}
		live = append(live, v.ID)
	}
	return s, r, live
}

// burstJob draws one random submission for writeBurstServer.
func burstJob(r *stats.RNG) SubmitRequest {
	rt := int64(r.IntRange(600, 36000))
	return SubmitRequest{Width: r.IntRange(1, 64), Runtime: rt, Estimate: rt + int64(r.IntRange(0, 2*int(rt))), User: r.IntRange(1, 200)}
}

// BenchmarkWriteBurst is one closed-loop writer against writeBurstServer,
// alternating bursts of 32 submissions (Server.Submit, forecast attached)
// and 32 cancellations of jobs from the middle half of the queue
// (Server.Cancel). One op is one write. It is the write path's profiling
// entry point, and reports what a commit batch spends in each stage and
// what a write's publication copies of the job index (nodes_copied), in
// nodes and in bytes as allocated:
//
//	go test ./internal/serve -run='^$' -bench=WriteBurst -cpuprofile cpu.out
func BenchmarkWriteBurst(b *testing.B) {
	const burst = 32
	s, r, live := writeBurstServer(b)
	base, nodes := batchStages(s), s.ins.nodesCopied.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i/burst%2 == 0 {
			v, err := s.Submit(burstJob(r))
			if err != nil {
				b.Fatal(err)
			}
			live = append(live, v.ID)
			continue
		}
		at := len(live)/4 + r.Intn(len(live)/2)
		if err := s.Cancel(live[at]); err != nil {
			b.Fatal(err)
		}
		live = slices.Delete(live, at, at+1)
	}
	b.StopTimer()
	reportBatchStages(b, s, base)
	perWrite := float64(s.ins.nodesCopied.Load()-nodes) / float64(b.N)
	b.ReportMetric(perWrite, "nodes/write")
	b.ReportMetric(perWrite*trieNodeBytes(), "node-B/write")
}

// trieNodeBytes is what one trie node costs as allocated: the larger of a
// branch and a JobIndex leaf, each the least of three thousand-node rounds
// (TotalAlloc is process-wide).
func trieNodeBytes() float64 {
	keep := make([]unsafe.Pointer, 1000)
	per := func(alloc func() unsafe.Pointer) float64 {
		least := math.Inf(1)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := range keep {
				keep[i] = alloc()
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(keep)))
		}
		return least
	}
	return max(per(func() unsafe.Pointer { return unsafe.Pointer(new(trieBranch)) }),
		per(func() unsafe.Pointer { return unsafe.Pointer(new(trieLeaf[*JobView])) }))
}

// allocsPerRun is testing.AllocsPerRun with the bytes beside the objects:
// what one call of f allocates, process-wide (so a server loop's share
// counts), averaged over runs calls after a warm-up call, the objects
// rounded down as AllocsPerRun rounds them.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWriteAllocs pins what one warm write allocates in BenchmarkWriteBurst's
// shape, its scheduler loop's share included, in objects and in bytes: a
// submission (the job, its journal record, its view, the index and forecast
// nodes on their paths, and the snapshot, whose forecast slot the reply's
// predicted start points into) and a cancellation (its view, index nodes,
// the snapshot and the queue's copy). The mailbox command, the running set
// and the reply's header and body allocate nothing once warm.
func TestWriteAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	s, r, live := writeBurstServer(t)
	submit, submitB := allocsPerRun(200, func() {
		v, err := s.Submit(burstJob(r))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, v.ID)
	})
	cancel, cancelB := allocsPerRun(200, func() {
		at := len(live)/4 + r.Intn(len(live)/2)
		if err := s.Cancel(live[at]); err != nil {
			t.Fatal(err)
		}
		live = slices.Delete(live, at, at+1)
	})
	t.Logf("a warm write allocates %.0f objects and %.0f B a submission, %.0f and %.0f B a cancellation", submit, submitB, cancel, cancelB)
	if submit > 9 || cancel > 5 {
		t.Errorf("a warm write allocates %.0f objects a submission and %.0f a cancellation, want at most 9 and 5", submit, cancel)
	}
	// About 2 180 and 6 440 B measured; the cancellation's 4 KiB is the
	// queue's copy, 512 jobs deep.
	if submitB > 2400 || cancelB > 7000 {
		t.Errorf("a warm write allocates %.0f B a submission and %.0f B a cancellation, want at most 2 400 and 7 000", submitB, cancelB)
	}
}

// batchStages reads the instruments GET /v1/debug/stats renders for
// runBatch: the nanoseconds its stages took in all, then the batches run
// and those a writer ran itself.
func batchStages(s *Server) [7]int64 {
	in := &s.ins
	return [7]int64{in.batchWait.Load(), in.batchExec.Load(), in.batchCommit.Load(),
		in.batchPublish.Load(), in.batchQuorum.Load(), in.batches.Load(), in.batchInline.Load()}
}

// reportBatchStages reports what a commit batch spent in each of runBatch's
// stages since base was read, in µs a batch, the writes a batch held and
// the share of batches a writer ran itself.
func reportBatchStages(b *testing.B, s *Server, base [7]int64) {
	c := batchStages(s)
	n := float64(c[5] - base[5])
	for st, name := range []string{"wait", "exec", "commit", "publish", "quorum"} {
		b.ReportMetric(float64(c[st]-base[st])/1e3/n, name+"-us/batch")
	}
	b.ReportMetric(float64(b.N)/n, "writes/batch")
	b.ReportMetric(float64(c[6]-base[6])/n, "inline/batch")
}

// BenchmarkServeWALPull is one steady-state pull of a registered follower:
// 64 records from the end of a journal depth records long, through
// ServeWAL, with the follower's Tailer parked where its last pull ended.
// A pull costs O(bytes returned), so ns/op must not follow depth.
func BenchmarkServeWALPull(b *testing.B) {
	const batch = 64
	for _, depth := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("depth%dk", depth/1024), func(b *testing.B) {
			dir := b.TempDir()
			s, err := New(durableOpts(dir))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			journalOps(b, s, depth)
			end := s.log.Seq()
			// The follower's Tailer as its previous pull left it. Each op
			// parks a copy, so every pull continues from the same place.
			parked := wal.NewTailer(dir, 0)
			if _, err := parked.Next(int(end) - batch); err != nil || parked.Seq() != end-batch {
				b.Fatalf("positioning tailer: seq %d, %v", parked.Seq(), err)
			}
			req := httptest.NewRequest("GET", fmt.Sprintf("/v1/wal?follower=f&from=%d&max=%d", end-batch+1, batch), nil)
			s.flw.ack("f", end-batch, "", time.Now())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl := *parked
				s.flw.parkTailer("f", &tl)
				rec := httptest.NewRecorder()
				s.ServeWAL(rec, req)
				if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
					b.Fatalf("pull: %d, %d bytes", rec.Code, rec.Body.Len())
				}
			}
			b.StopTimer()
			if got := s.ins.pullRecords.Load(); got != int64(b.N)*batch {
				b.Fatalf("shipped %d records in %d pulls", got, b.N)
			}
		})
	}
}
