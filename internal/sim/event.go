// Package sim contains the discrete-event simulation engine that drives the
// backfilling schedulers: a deterministic event queue (arrivals and
// completions), the virtual clock, and the run loop that feeds events to a
// Scheduler and records job placements.
//
// The engine is deliberately small and single-threaded: supercomputer
// scheduling simulations are dominated by scheduler logic, not event
// dispatch, and single-threaded execution with total event ordering is what
// makes runs bit-for-bit reproducible.
//
// That cost split is measured, not assumed: BenchmarkEventQueue isolates
// dispatch while BenchmarkBatchRun/BenchmarkSessionStep time the engine
// end-to-end (`make bench`; PERFORMANCE.md §1), and the benchmark's study
// workload times the whole engine under the paper's grid.
// The scheduler-side hot paths the engine amortises across events are
// described in DESIGN.md §9.
package sim

import "repro/internal/job"

// EventKind discriminates the two event types the engine knows about.
type EventKind int

const (
	// Completion events fire when a running job releases its processors.
	// Completions sort before arrivals at the same instant so that a job
	// arriving exactly when another finishes sees the freed processors.
	Completion EventKind = iota
	// Arrival events fire when a job is submitted.
	Arrival
	// Timer events carry no job; they exist only to wake the scheduler at
	// a time it asked for via the Waker interface (e.g. a reservation
	// instant that coincides with no completion).
	Timer
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case Completion:
		return "completion"
	case Arrival:
		return "arrival"
	case Timer:
		return "timer"
	default:
		return "unknown"
	}
}

// Event is one scheduled occurrence in virtual time. For completion
// events, epoch identifies which dispatch of the job the event belongs to:
// suspending a job increments its epoch, so the stale completion is dropped
// when popped.
type Event struct {
	Time  int64
	Kind  EventKind
	Job   *job.Job
	epoch int
	seq   int64 // insertion order, the final tie-breaker
}

// eventLess is the total event order: by time, then kind (completions
// before arrivals), then insertion order.
func eventLess(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.seq < b.seq
}

// EventQueue is a deterministic priority queue of events. Ties on time break
// by kind (completions first) and then by insertion order, so identical
// inputs always replay identically.
//
// The heap stores Event values in a hand-rolled binary heap rather than
// *Event through container/heap: no per-event allocation on Push (the only
// allocations are slice growth, amortised away once the backing array is
// warm) and no interface boxing on Pop. alloc pins in event_test.go keep the
// steady state at zero allocations per push/pop pair.
type EventQueue struct {
	h    []Event
	next int64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue {
	return &EventQueue{}
}

// Push enqueues an event at time t.
func (q *EventQueue) Push(t int64, kind EventKind, j *job.Job) {
	q.PushEpoch(t, kind, j, 0)
}

// PushEpoch enqueues an event tagged with a dispatch epoch (see Event).
func (q *EventQueue) PushEpoch(t int64, kind EventKind, j *job.Job, epoch int) {
	q.h = append(q.h, Event{Time: t, Kind: kind, Job: j, epoch: epoch, seq: q.next})
	q.next++
	q.siftUp(len(q.h) - 1)
}

// Pop removes and returns the earliest event; ok is false when empty.
func (q *EventQueue) Pop() (e Event, ok bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	e = q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = Event{} // drop the Job pointer for the collector
	q.h = q.h[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return e, true
}

// Peek returns the earliest event without removing it; ok is false when
// empty.
func (q *EventQueue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// siftUp restores the heap property after appending at index i.
func (q *EventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q.h[i], q.h[parent]) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (q *EventQueue) siftDown(i int) {
	n := len(q.h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && eventLess(q.h[right], q.h[left]) {
			least = right
		}
		if !eventLess(q.h[least], q.h[i]) {
			return
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
}
