// Package sim contains the discrete-event simulation engine that drives the
// backfilling schedulers: a deterministic event queue (arrivals and
// completions), the virtual clock, and the run loop that feeds events to a
// Scheduler and records job placements.
//
// The engine is deliberately small and single-threaded: single-threaded
// execution with total event ordering is what makes runs bit-for-bit
// reproducible.
//
// Event dispatch is a small share of a run, and that is measured, not
// assumed. In a CPU profile of BenchmarkStudyGrid (the paper's grid, on a
// 2-core Xeon) the schedulers and the auditor that wraps them take most of
// the time, EventQueue about 2.5 % (8.5 % while every future arrival sat
// in the heap) and metrics.AnalyzeOutcomes about 7 %. BenchmarkEventQueue
// isolates dispatch, BenchmarkBatchRun/BenchmarkSessionStep time the
// engine end to end (`make bench`; PERFORMANCE.md §1, §4), and the
// benchmark's study workload times the whole cell. The scheduler-side hot
// paths the engine amortises across events are described in DESIGN.md §9.
package sim

import (
	"unsafe"

	"repro/internal/job"
)

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
// Arrivals usually come in time order: a batch run submits its trace sorted
// by arrival, and a daemon submits each job at its current instant. An
// Arrival pushed into an empty arrival run, or at or after the run's last
// one, is appended to it, and seq, growing with every push, keeps the run in
// eventLess order. The binary heap h holds everything else: completions,
// timers and out-of-order arrivals. Pop and Peek take the lesser of the
// run's head and the heap's root, so the queue keeps the one total order
// eventLess defines, and a completion pays log of the events in flight, not
// of the arrivals still to come.
//
// Both hold Event values rather than *Event through container/heap: no
// per-event allocation on Push (the only allocations are slice growth,
// amortised away once the backing arrays are warm) and no interface boxing
// on Pop. alloc pins in event_test.go keep the steady state at zero
// allocations per push/pop pair.
type EventQueue struct {
	h    []Event
	run  []Event // arrivals in eventLess order; run[head:] are pending
	head int
	next int64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue {
	return &EventQueue{}
}

// presize gives an empty queue one array for n arrivals: the run fills it,
// and the heap grows into the slots the run's pops free. A queue that reset
// kept an array large enough lays the run out in it.
func (q *EventQueue) presize(n int) {
	if cap(q.run) < n {
		q.run = make([]Event, 0, n)
	}
	q.h = q.run[:0:0]
}

// reset empties the queue for the next batch run and keeps, zeroed, the
// array presize made: the run's if it still holds it, the heap's if the
// run's last pop handed it over.
func (q *EventQueue) reset() {
	buf := q.run
	if cap(q.h) > cap(buf) {
		buf = q.h
	}
	clear(buf[:cap(buf)])
	*q = EventQueue{run: buf[:0]}
}

// shared reports whether the heap lives in the run's popped front, as
// h = run[:len(h):head], the way presize sets it up. Sharing ends when
// either outgrows the array, since append then moves it out.
func (q *EventQueue) shared() bool {
	return unsafe.SliceData(q.h) == unsafe.SliceData(q.run)
}

// Push enqueues an event at time t.
func (q *EventQueue) Push(t int64, kind EventKind, j *job.Job) {
	q.PushEpoch(t, kind, j, 0)
}

// PushEpoch enqueues an event tagged with a dispatch epoch (see Event).
func (q *EventQueue) PushEpoch(t int64, kind EventKind, j *job.Job, epoch int) {
	e := Event{Time: t, Kind: kind, Job: j, epoch: epoch, seq: q.next}
	q.next++
	if kind == Arrival && (q.head == len(q.run) || t >= q.run[len(q.run)-1].Time) {
		if len(q.run) == cap(q.run) && q.head > 0 && !q.shared() {
			// Reuse the popped front before growing the array.
			n := copy(q.run, q.run[q.head:])
			clear(q.run[n:])
			q.run, q.head = q.run[:n], 0
		}
		q.run = append(q.run, e)
		return
	}
	q.h = append(q.h, e)
	q.siftUp(len(q.h) - 1)
}

// fromRun reports whether the earliest pending event is the run's head.
func (q *EventQueue) fromRun() bool {
	return q.head < len(q.run) && (len(q.h) == 0 || eventLess(q.run[q.head], q.h[0]))
}

// Pop removes and returns the earliest event; ok is false when empty.
func (q *EventQueue) Pop() (e Event, ok bool) {
	if q.fromRun() {
		e = q.run[q.head]
		q.run[q.head] = Event{} // drop the Job pointer for the collector
		q.head++
		shared := q.shared()
		if shared {
			q.h = q.run[:len(q.h):q.head]
		}
		if q.head == len(q.run) {
			q.run, q.head = q.run[:0], 0
			if shared {
				q.run = nil // the heap keeps the array
			}
		}
		return e, true
	}
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
	if q.fromRun() {
		return q.run[q.head], true
	}
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) + len(q.run) - q.head }

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
