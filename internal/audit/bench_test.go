package audit

import (
	"fmt"
	"testing"

	"repro/internal/sched"
)

// BenchmarkAuditorEvent prices one audited engine call behind a standing
// queue: arrivals, passes that start nothing and cancellations from the
// middle of the queue, in turn, through EASY under SJF with the head rule
// on. The scheduler under the auditor is a stub (its own per-call cost
// would swamp the auditor's, and sched's cancel is linear in the queue), so
// the figure is the auditor's. The two depths must agree: no rule may cost
// O(queue) per event (PERFORMANCE.md §6).
func BenchmarkAuditorEvent(b *testing.B) {
	for _, depth := range []int{64, 4096} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			var q *standing
			setup := func() {
				f := &fakeCancelling{}
				q = newStanding(New(16, f, OptionsForKind("easy", sched.SJF{})), &f.pending, depth)
			}
			setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch i % 3 {
				case 0:
					q.arrive()
				case 1:
					q.a.Launch(1)
				default:
					q.cancelMid(i)
				}
				// The auditor remembers every job it has seen; start afresh
				// before that memory, not the queue, is what is measured.
				if i%300000 == 299999 {
					b.StopTimer()
					if err := q.a.Err(); err != nil {
						b.Fatal(err)
					}
					setup()
					b.StartTimer()
				}
			}
			b.StopTimer()
			if err := q.a.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
