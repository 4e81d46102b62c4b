package wal

// The WAL benchmarks are `make bench` material (PERFORMANCE.md §1):
// BenchmarkWALAppend measures the group-commit append path without fsync —
// the configuration the benchmark's churn workload runs — at batch sizes
// bracketing the mailbox's behaviour (1 = idle trickle, 64 = saturated
// burst). The fsync variant's cost is the storage stack's, not this code's.

import (
	"fmt"
	"testing"
)

func benchAppend(b *testing.B, batch int, fsync bool) {
	l, _, err := Open(b.TempDir(), Options{Fsync: fsync})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	recs := make([]Record, batch)
	for i := range recs {
		if i%2 == 0 {
			recs[i] = Record{Op: OpSubmit, Job: &JobRec{ID: i + 1, Arrival: 100, Runtime: 600, Estimate: 1200, Width: 8}}
		} else {
			recs[i] = Record{Op: OpAdvance, To: int64(i) * 50}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(l.buf)))
}

// Sub-benchmark names avoid a trailing dash-number: tools that read `go test
// -bench` output take one "-N" suffix for the GOMAXPROCS tag, which would
// swallow "batch-64".
func BenchmarkWALAppend(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) { benchAppend(b, batch, false) })
	}
}

func BenchmarkWALFsyncedAppend(b *testing.B) {
	b.Run("batch64", func(b *testing.B) { benchAppend(b, 64, true) })
}

// BenchmarkWALTail is a follower's catch-up: 64-record pulls from the start
// of a journal to its end, one op per record. The shipping layer's
// invariant — a pull costs O(bytes returned) — makes ns/op the same at
// either depth; a Tailer that re-read its segment on every pull would cost
// forty times more at depth40k than at depth1k.
func BenchmarkWALTail(b *testing.B) {
	for _, depth := range []int{1000, 40000} {
		b.Run(fmt.Sprintf("depth%dk", depth/1000), func(b *testing.B) {
			dir := b.TempDir()
			deepJournal(b, dir, depth)
			b.ReportAllocs()
			b.ResetTimer()
			tl := NewTailer(dir, 0)
			for i := 0; i < b.N; {
				recs, err := tl.Next(64)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) == 0 {
					tl = NewTailer(dir, 0) // caught up: the next follower starts over
				}
				i += len(recs)
			}
		})
	}
}

// BenchmarkWALDecode is one frame through decodeRecord — CRC check, parse,
// known-op check — with none of the Tailer's file reading around it: what
// every journal reader pays per record. An advance allocates nothing, a
// submit its JobRec.
func BenchmarkWALDecode(b *testing.B) {
	for _, r := range []Record{
		{Seq: 20001, Op: OpAdvance, To: 20001},
		{Seq: 20002, Op: OpSubmit, Job: submitRec(20002).Job},
	} {
		b.Run(r.Op, func(b *testing.B) {
			line, err := appendRecord(nil, r)
			if err != nil {
				b.Fatal(err)
			}
			line = line[:len(line)-1]
			b.SetBytes(int64(len(line) + 1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if decodeSink, err = decodeRecord(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
