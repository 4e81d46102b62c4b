package fed

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/serve"
)

func BenchmarkFedRouteHash(b *testing.B) {
	r, err := RouterByName("hash", 8)
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]Load, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Route(Key{User: i % 500, Width: 1 + i%64, Estimate: 1000}, loads)
	}
}

func BenchmarkFedRouteWidth(b *testing.B) {
	r, err := RouterByName("width", 8)
	if err != nil {
		b.Fatal(err)
	}
	loads := make([]Load, 8)
	for i := range loads {
		loads[i] = Load{Procs: 64, Busy: i * 7 % 64, QueuedWork: int64(i * 12345)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Route(Key{User: i % 500, Width: 1 + i%64, Estimate: 1000}, loads)
	}
}

// benchFed builds a running 4-shard federation with a standing queue, the
// state a gather has to merge.
func benchFed(b *testing.B, shards, queued int) (*Federation, func()) {
	b.Helper()
	f, err := New(Options{Shards: shards, Route: "width", Shard: serve.Options{Procs: 64, Scheduler: "easy", Policy: "FCFS", Speed: 1e-9}})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	for s := 0; s < shards; s++ {
		if _, _, err := f.Submit(serve.SubmitRequest{Width: 64, Runtime: 1_000_000, User: s}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < queued; i++ {
		if _, _, err := f.Submit(serve.SubmitRequest{Width: 1 + i%32, Runtime: 5_000, User: i % 200}); err != nil {
			b.Fatal(err)
		}
	}
	return f, func() {
		cancel()
		<-done
		f.Close()
	}
}

func BenchmarkFedGatherQueue(b *testing.B) {
	for _, shards := range []int{1, 4} {
		// Hyphen-free sub-bench name: tools that read `go test -bench`
		// output strip the trailing -GOMAXPROCS suffix, which would
		// swallow a "-1"/"-4" here.
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			f, stop := benchFed(b, shards, 256)
			defer stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if q := f.queue(0); q.Procs != shards*64 {
					b.Fatal("bad merge")
				}
			}
		})
	}
}

// BenchmarkFedMergedSnapshot merges four drained shards behind two lengths
// of history; the merge reads no finished job, so both cost the same.
func BenchmarkFedMergedSnapshot(b *testing.B) {
	for _, history := range []int{1_000, 20_000} {
		b.Run(fmt.Sprintf("history%d", history), func(b *testing.B) {
			f, stop := drainedFed(b, 4, history)
			defer stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s := f.MergedSnapshot(); s.Procs != 4*16 {
					b.Fatal("bad merge")
				}
			}
		})
	}
}
