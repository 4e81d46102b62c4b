package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/job"
)

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	j := &job.Job{ID: 1}
	q.Push(10, Arrival, j)
	q.Push(5, Arrival, j)
	q.Push(5, Completion, j)
	q.Push(20, Completion, j)

	var got []struct {
		t int64
		k EventKind
	}
	for q.Len() > 0 {
		e, _ := q.Pop()
		got = append(got, struct {
			t int64
			k EventKind
		}{e.Time, e.Kind})
	}
	want := []struct {
		t int64
		k EventKind
	}{
		{5, Completion}, // completions before arrivals at the same instant
		{5, Arrival},
		{10, Arrival},
		{20, Completion},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestEventQueueFIFOAmongTies(t *testing.T) {
	q := NewEventQueue()
	for i := 1; i <= 10; i++ {
		q.Push(7, Arrival, &job.Job{ID: i})
	}
	for i := 1; i <= 10; i++ {
		e, _ := q.Pop()
		if e.Job.ID != i {
			t.Fatalf("tie order broken: popped %d, want %d", e.Job.ID, i)
		}
	}
}

func TestEventQueueEmpty(t *testing.T) {
	q := NewEventQueue()
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reports an event")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reports an event")
	}
	if q.Len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
}

func TestEventQueuePeekDoesNotRemove(t *testing.T) {
	q := NewEventQueue()
	q.Push(3, Arrival, &job.Job{ID: 1})
	if e, ok := q.Peek(); !ok || e.Time != 3 || q.Len() != 1 {
		t.Fatal("peek broken")
	}
	if e, ok := q.Pop(); !ok || e.Time != 3 || q.Len() != 0 {
		t.Fatal("pop after peek broken")
	}
}

func TestEventQueueSortedProperty(t *testing.T) {
	f := func(times []int64) bool {
		q := NewEventQueue()
		for i, tt := range times {
			if tt < 0 {
				tt = -tt
			}
			q.Push(tt, Arrival, &job.Job{ID: i + 1})
		}
		var popped []int64
		for q.Len() > 0 {
			e, _ := q.Pop()
			popped = append(popped, e.Time)
		}
		return sort.SliceIsSorted(popped, func(i, j int) bool { return popped[i] < popped[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventKindString(t *testing.T) {
	if Completion.String() != "completion" || Arrival.String() != "arrival" {
		t.Fatal("kind names wrong")
	}
	if EventKind(5).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}

// TestEventQueueZeroAllocSteadyState pins the reason the heap stores Event
// values instead of *Event: once the backing array is warm, a push/pop
// cycle allocates nothing. The warm-up pass grows the slice; the measured
// passes reuse it.
func TestEventQueueZeroAllocSteadyState(t *testing.T) {
	const n = 256
	q := NewEventQueue()
	j := &job.Job{ID: 1}
	fill := func() {
		for i := 0; i < n; i++ {
			q.Push(int64((i*131)%977), EventKind(i%2), j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	fill() // warm the backing array
	if got := testing.AllocsPerRun(10, fill); got != 0 {
		t.Fatalf("warm push/pop of %d events allocates %.1f times, want 0", n, got)
	}
}

// TestPresizedQueueAllocatesOnce pins what presize is for: a batch run's
// arrivals, and the completions each one pops room for, live in the one
// array presize makes, so the whole run allocates that array and nothing
// else.
func TestPresizedQueueAllocatesOnce(t *testing.T) {
	const n = 512
	j := &job.Job{ID: 1}
	got := testing.AllocsPerRun(10, func() {
		var q EventQueue
		q.presize(n)
		for i := 0; i < n; i++ {
			q.Push(int64(i), Arrival, j)
		}
		for q.Len() > 0 {
			if e, _ := q.Pop(); e.Kind == Arrival {
				q.Push(e.Time+int64(e.Time%7), Completion, j)
			}
		}
	})
	if got != 1 {
		t.Fatalf("a presized run of %d jobs allocates %.1f times, want 1", n, got)
	}
}

// TestEventQueueInterleavedPops drives the heap with interleaved pushes and
// pops: every pop must return the minimum of the queue's current contents,
// and the final drain must come out fully sorted.
func TestEventQueueInterleavedPops(t *testing.T) {
	q := NewEventQueue()
	j := &job.Job{ID: 9}
	pending := make(map[int64]int) // multiset of times still enqueued
	push := []int64{50, 10, 30, 10, 70, 20, 30}
	for i, tt := range push {
		q.Push(tt, Arrival, j)
		pending[tt]++
		if i%2 == 1 {
			e, ok := q.Pop()
			if !ok {
				t.Fatal("pop failed with events pending")
			}
			for at := range pending {
				if at < e.Time {
					t.Fatalf("popped %d while %d still enqueued", e.Time, at)
				}
			}
			if pending[e.Time]--; pending[e.Time] == 0 {
				delete(pending, e.Time)
			}
		}
	}
	prev := int64(-1)
	for q.Len() > 0 {
		e, _ := q.Pop()
		if e.Time < prev {
			t.Fatalf("drain out of order: %d after %d", e.Time, prev)
		}
		prev = e.Time
	}
}

// FuzzEventQueue runs a program of pushes, pops and peeks against a
// reference that keeps every pending event and takes the least by (time,
// kind, seq). Each op is two bytes: the first picks the op (pop, peek, or a
// push and its kind), the second a push's time, from a small range so
// instants repeat and arrivals come out of order. A leading byte with its
// low bit set presizes the queue for (byte>>1)%8 arrivals first, as Run
// does, so the heap starts out in the arrival run's popped front.
func FuzzEventQueue(f *testing.F) {
	const (
		pop  = 0
		peek = 1
		push = 2 // + kind
		A    = push + byte(Arrival)
		C    = push + byte(Completion)
		T    = push + byte(Timer)
	)
	// Equal instants: a completion pushed after two arrivals at its time.
	f.Add([]byte{0, A, 5, A, 5, C, 5, pop, 0, pop, 0, pop, 0})
	// Out-of-order arrivals: one below the run's tail but above its head.
	f.Add([]byte{0, A, 1, A, 9, A, 3, A, 9, peek, 0, pop, 0, pop, 0, pop, 0})
	f.Add([]byte{7, A, 9, A, 3, A, 9, peek, 0, pop, 0, A, 4, pop, 0, pop, 0, pop, 0})
	// A timer and a completion at an arrival's instant.
	f.Add([]byte{9, A, 7, A, 8, pop, 0, T, 8, C, 8, A, 8, pop, 0, pop, 0, pop, 0, pop, 0})
	// Presized: the heap outgrows the run's popped front, then the run
	// drains and the heap keeps the array.
	f.Add([]byte{7, A, 1, A, 2, A, 3, pop, 0, C, 5, C, 6, pop, 0, T, 2, pop, 0, pop, 0, A, 6, pop, 0, pop, 0})
	f.Add([]byte{9, A, 1, A, 2, A, 3, A, 4, pop, 0, pop, 0, C, 9, C, 4, T, 3, pop, 0, pop, 0, pop, 0, pop, 0, A, 5, pop, 0, pop, 0})
	// Presized: the run drains, or fills and moves out, while the heap
	// still lives in its front.
	f.Add([]byte{5, A, 1, A, 2, pop, 0, C, 5, pop, 0, A, 3, pop, 0, pop, 0})
	f.Add([]byte{7, A, 1, A, 2, A, 3, pop, 0, pop, 0, C, 5, A, 4, C, 6, pop, 0, pop, 0, pop, 0, pop, 0, pop, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		q := NewEventQueue()
		if prog[0]&1 == 1 {
			q.presize(int(prog[0]>>1) % 8)
		}
		var ref []Event
		var seq int64
		least := func() int {
			m := 0
			for i, e := range ref {
				if r := ref[m]; e.Time < r.Time || e.Time == r.Time && (e.Kind < r.Kind || e.Kind == r.Kind && e.seq < r.seq) {
					m = i
				}
			}
			return m
		}
		for pc := 1; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc]%5, prog[pc+1]
			switch op {
			case pop, peek:
				var got Event
				var ok bool
				if op == pop {
					got, ok = q.Pop()
				} else {
					got, ok = q.Peek()
				}
				if ok != (len(ref) > 0) {
					t.Fatalf("op %d: ok=%v with %d pending", pc/2, ok, len(ref))
				}
				if !ok {
					continue
				}
				m := least()
				if got != ref[m] {
					t.Fatalf("op %d: got %+v, want %+v", pc/2, got, ref[m])
				}
				if op == pop {
					ref = append(ref[:m], ref[m+1:]...)
				}
			default:
				kind := EventKind(op - push)
				var j *job.Job
				if kind != Timer {
					j = &job.Job{ID: int(seq) + 1}
				}
				q.PushEpoch(int64(arg%16), kind, j, int(arg))
				ref = append(ref, Event{Time: int64(arg % 16), Kind: kind, Job: j, epoch: int(arg), seq: seq})
				seq++
			}
			if q.Len() != len(ref) {
				t.Fatalf("op %d: Len %d, want %d", pc/2, q.Len(), len(ref))
			}
		}
		for len(ref) > 0 {
			got, _ := q.Pop()
			m := least()
			if got != ref[m] {
				t.Fatalf("drain: got %+v, want %+v", got, ref[m])
			}
			ref = append(ref[:m], ref[m+1:]...)
		}
	})
}
