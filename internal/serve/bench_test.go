package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/sched"
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
			if got := s.pullRecords.Load(); got != int64(b.N)*batch {
				b.Fatalf("shipped %d records in %d pulls", got, b.N)
			}
		})
	}
}
