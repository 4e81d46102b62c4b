package replica

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

// BenchmarkReplicaApply measures the follower's apply loop — the rate at
// which a replica consumes journal records into its mirror (session step
// + the pulled frames into the history + one snapshot publish per batch).
// One op replays a fixed 2048-record stream — 32 batches in the leader's
// natural shape, a burst of submits closed by the clock advance that
// retires them, each with the frames a source yields beside it — into a
// fresh mirror, so every iteration does identical work regardless of
// benchtime.
func BenchmarkReplicaApply(b *testing.B) {
	opts := serve.Options{
		Procs: 256, Scheduler: "easy", Policy: "FCFS", Audit: true, Speed: 1e-9,
		Follower: "bench",
	}
	const batch = 64 // 63 submits + the advance that retires them
	var (
		seq uint64
		now int64
		id  int
	)
	batches := make([][]wal.Record, 32)
	frames := make([][]byte, len(batches))
	for i := range batches {
		recs := make([]wal.Record, 0, batch)
		for j := 0; j < batch-1; j++ {
			seq++
			id++
			recs = append(recs, wal.Record{
				Seq: seq, Op: wal.OpSubmit,
				Job: &wal.JobRec{
					ID: id, Arrival: now, Runtime: 100, Estimate: 120,
					Width: 1 + j%8,
				},
			})
		}
		seq++
		now += 500
		recs = append(recs, wal.Record{Seq: seq, Op: wal.OpAdvance, To: now})
		batches[i] = recs
		for _, r := range recs {
			var err error
			if frames[i], err = wal.EncodeRecord(frames[i], r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := serve.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i, recs := range batches {
			if err := srv.ApplyFramed(recs, frames[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		srv.Close()
		b.StartTimer()
	}
}

// BenchmarkReplicaRead measures the replica's read surface under parallel
// clients — a job-status poll against a caught-up follower of a busy
// leader. The number to compare against is BenchmarkServeReadStatus in
// internal/serve: the follower serves the same lock-free snapshot path,
// so the replica wrapper (promotion check, min_seq parse, delegate) is
// the only overhead.
func BenchmarkReplicaRead(b *testing.B) {
	dir := b.TempDir()
	leader, err := serve.New(serve.Options{
		Procs: 64, Scheduler: "easy", Policy: "FCFS", Audit: true, Speed: 1e-9,
		Durability: serve.DurabilityOptions{Dir: dir},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- leader.Run(ctx) }()
	b.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			b.Fatal("leader did not stop")
		}
		leader.Close()
	})
	lh := leader.Handler()
	submit := func(width int, runtime int64) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/jobs",
			strings.NewReader(fmt.Sprintf(`{"width":%d,"runtime":%d}`, width, runtime)))
		lh.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			b.Fatalf("seed submit: %d %s", rec.Code, rec.Body.String())
		}
	}
	submit(64, 100000)
	for i := 0; i < 256; i++ {
		submit(1+(i%16)*4, int64(1000+100*i))
	}

	rep, err := New(Options{
		Source: dir,
		Serve: serve.Options{
			Procs: 64, Scheduler: "easy", Policy: "FCFS", Audit: true, Speed: 1e-9,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for {
		before := rep.AppliedSeq()
		if err := rep.Sync(); err != nil {
			b.Fatal(err)
		}
		if rep.AppliedSeq() == before && rep.AppliedSeq() >= 257 {
			break
		}
	}
	h := rep.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/17", nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("GET /v1/jobs/17: %d", rec.Code)
			}
		}
	})
}
