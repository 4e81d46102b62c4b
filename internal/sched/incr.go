package sched

import (
	"math"
	"sort"

	"repro/internal/job"
)

// This file is the shared infrastructure behind incremental scheduling
// passes (DESIGN.md §15): generation tracking so a Launch that
// provably cannot start anything returns without touching the queue,
// ordered insertion so queues stay in policy order without per-event
// re-sorts, and the threshold-crossing time that the promoting and the
// preempting scheduler hand the memo as their wake-up bound.
//
// The correctness contract every user of passMemo relies on: a skipped
// pass must be observably identical to running the full pass — same (empty)
// start list, same queue order, same internal state. The differential
// fuzzer FuzzLaunchIncremental pins exactly that, scheduler by scheduler,
// against a reference copy with the memo disabled.

// noWake is the "no time-triggered action pending" sentinel for
// passMemo.nextAt: with an unchanged queue and machine, no future instant
// can make a pass start anything.
const noWake = math.MaxInt64

// PolicyTimeInvariant reports whether pol orders any two jobs identically
// at every instant. A policy says so itself through an optional
// TimeInvariant() bool method: FCFS, SJF and LJF compare static job fields
// only and have it; XFactor-family policies age jobs at estimate-dependent
// rates, so their relative order changes as time passes, and they do not. A
// policy without the method — any wrapper that does not forward it — is
// taken as time-varying, the answer that is always safe. Incremental
// schedulers use this to decide whether a queue sorted at one instant is
// still sorted at a later one (and therefore whether a pass can be skipped
// when time alone has advanced); internal/audit probes the same method to
// decide whether it may keep its queue mirror as a heap.
func PolicyTimeInvariant(pol Policy) bool {
	ti, ok := pol.(interface{ TimeInvariant() bool })
	return ok && ti.TimeInvariant()
}

// passMemo is the generation state one scheduler keeps between Launch
// passes. Events that could change what a pass does fall in two classes:
// structural changes (completions, cancellations, suspensions, reservation
// compression — anything that frees capacity or moves guarantees) mark the
// memo invalid and force a full pass; arrivals are counted separately
// because most schedulers can fold a new job into the previous pass's
// cached conclusion without replaying it (the arrivals-only fast path each
// scheduler implements on top of this).
type passMemo struct {
	// timeInv caches PolicyTimeInvariant(pol) at construction.
	timeInv bool
	// forceFull disables every skip and fast path; the differential
	// fuzzer's reference schedulers set it so both sides share one
	// implementation.
	forceFull bool

	valid    bool  // a pass has completed since the last structural change
	arrivals int   // arrivals since the last completed pass
	lastNow  int64 // instant of the last completed pass
	// nextAt is the earliest future instant at which a pass could start
	// (or promote, or preempt) a job with no further events — the minimum
	// over pending reservations, replanned starts, and threshold-crossing
	// times, or noWake when the blocked state is time-independent. It must
	// never be later than the true earliest action (stale-low is a futile
	// full pass; stale-high would skip real work).
	nextAt int64

	counts WorkCounts
}

// WorkCounts is the work a scheduler has done, counted on its own goroutine
// once a call, never inside a scan: points crossed are index differences. A
// pass is skipped when the memo proves it futile, settled when an
// arrivals-only path answers it from the new jobs alone, and full otherwise.
// The reservation engine adds compression passes, the windows they moved,
// the EarlierStart probes behind them and its displacement candidates (and
// those needing the second probe); an engine with a profile adds the
// profile's searches and edits and the step points they crossed.
type WorkCounts struct {
	Skipped, Settled, Full     int64
	ResortsRun, ResortsSkipped int64
	Compressions, Moves        int64
	EarlierStarts              int64
	Candidates, SecondProbes   int64
	Searches, SearchPoints     int64
	Adjusts, AdjustPoints      int64
}

// Counter is one work counter under its GET /v1/debug/stats key.
type Counter struct {
	Name string
	N    int64
}

// Named lists the counters in a fixed order under their keys.
func (c WorkCounts) Named() [14]Counter {
	return [...]Counter{
		{"passes_skipped", c.Skipped}, {"passes_settled", c.Settled}, {"passes_full", c.Full},
		{"resorts_run", c.ResortsRun}, {"resorts_skipped", c.ResortsSkipped}, {"compress_passes", c.Compressions},
		{"compress_moves", c.Moves}, {"earlier_start_probes", c.EarlierStarts}, {"displacement_candidates", c.Candidates},
		{"displacement_second_probes", c.SecondProbes}, {"search_calls", c.Searches}, {"search_points", c.SearchPoints},
		{"adjust_calls", c.Adjusts}, {"adjust_points", c.AdjustPoints},
	}
}

// addProfile takes p's searches and edits into c.
func (c *WorkCounts) addProfile(p *Profile) {
	w := p.work
	c.Searches, c.SearchPoints, c.Adjusts, c.AdjustPoints = w.Searches, w.SearchPoints, w.Adjusts, w.AdjustPoints
}

// searched records one scan that crossed n points.
func (c *WorkCounts) searched(n int) {
	c.Searches++
	c.SearchPoints += int64(n)
}

// newPassMemo returns the initial memo for a scheduler under pol.
func newPassMemo(pol Policy) passMemo {
	return passMemo{timeInv: PolicyTimeInvariant(pol)}
}

// noteArrival records one arrival since the last pass.
func (m *passMemo) noteArrival() { m.arrivals++ }

// invalidate records a structural change: the next Launch runs in full.
func (m *passMemo) invalidate() { m.valid = false }

// canSkip reports whether a pass at now is provably a no-op, and counts it
// skipped when it is. Same-instant repeats of a completed pass are always
// skippable (a pass runs to its own fixpoint); advancing time is skippable
// only under a time-invariant policy (otherwise the queue order, and with
// it the head and its shadow, may change) and only before nextAt.
func (m *passMemo) canSkip(now int64) bool {
	if m.forceFull || !m.valid || m.arrivals > 0 {
		return false
	}
	if now == m.lastNow || m.timeInv && now < m.nextAt {
		m.counts.Skipped++
		return true
	}
	return false
}

// arrivalsOnly reports whether the only changes since the last completed
// pass are new arrivals — the precondition for every scheduler's
// incremental arrival path. The path additionally requires a
// time-invariant policy: the cached conclusions (shadow times,
// reservations, replanned starts) were derived under the pass-time queue
// order.
func (m *passMemo) arrivalsOnly() bool {
	return !m.forceFull && m.valid && m.arrivals > 0 && m.timeInv
}

// completePass records a finished pass at now with the given
// time-trigger lower bound.
func (m *passMemo) completePass(now, nextAt int64) {
	m.valid = true
	m.arrivals = 0
	m.lastNow = now
	m.nextAt = nextAt
}

// orderedInsert places j into queue at its policy position, preserving
// sorted order. Policies induce a strict total order, so the sorted
// permutation is unique and inserting is equivalent to appending and
// re-sorting. queue must be in pol's order at now: always so under a
// time-invariant policy, and under any within the pass that sorted it.
func orderedInsert(queue []*job.Job, j *job.Job, pol Policy, now int64) []*job.Job {
	i := sort.Search(len(queue), func(k int) bool { return pol.Less(j, queue[k], now) })
	queue = append(queue, nil)
	copy(queue[i+1:], queue[i:])
	queue[i] = j
	return queue
}

// clearTail nils out the elements of q beyond n and returns q[:n].
// Compaction loops that shrink a queue in place must clear the abandoned
// tail: the backing array otherwise keeps pointers to started jobs live
// for the queue's whole lifetime.
func clearTail(q []*job.Job, n int) []*job.Job {
	tail := q[n:]
	for i := range tail {
		tail[i] = nil
	}
	return q[:n]
}

// compactFront removes the first n elements of q in place (preserving
// order) and clears the vacated tail, so the backing array neither leaks
// its prefix (the re-slice q = q[n:] abandons it) nor retains pointers to
// the removed jobs.
func compactFront(q []*job.Job, n int) []*job.Job {
	if n == 0 {
		return q
	}
	copy(q, q[n:])
	return clearTail(q, len(q)-n)
}

// removeJob deletes j from q in place, preserving order and clearing the
// vacated slot.
func removeJob(q []*job.Job, j *job.Job) []*job.Job {
	for i, e := range q {
		if e == j {
			copy(q[i:], q[i+1:])
			return clearTail(q, len(q)-1)
		}
	}
	return q
}

// xfCrossTime returns the earliest instant t >= from at which
// XFactor(j, t) reaches threshold: the promotion/preemption trigger time
// incremental passes use as a wake-up bound. The closed form
// arrival + ceil((threshold-1)·estimate) is adjusted by at most a step in
// either direction to stay exact under floating-point rounding.
func xfCrossTime(j *job.Job, threshold float64, from int64) int64 {
	if XFactor(j, from) >= threshold {
		return from
	}
	est := j.Estimate
	if est < 1 {
		est = 1
	}
	d := (threshold - 1) * float64(est)
	if d >= math.MaxInt64/2 {
		return noWake
	}
	t := j.Arrival + int64(math.Ceil(d))
	for t > from && XFactor(j, t-1) >= threshold {
		t--
	}
	for XFactor(j, t) < threshold {
		t++
	}
	if t < from {
		t = from
	}
	return t
}
