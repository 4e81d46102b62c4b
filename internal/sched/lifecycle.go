package sched

import (
	"fmt"
	"slices"

	"repro/internal/job"
)

// lifecycle is the part of a scheduler that does not depend on its
// backfilling rule: the waiting queue kept in policy order, the pass memo
// every queue change must be reported to, and the buffer of arrivals since
// the last pass that the arrivals-only fast paths read. Every scheduler
// embeds it, so Arrive, QueuedJobs and the queue half of Cancel (withdraw)
// are written once; a scheduler whose arrival touches more than the queue (a
// reservation to grant) declares its own Arrive and calls this one, and each
// engine's Cancel decides which withdrawals the memo survives.
type lifecycle struct {
	pol   Policy
	queue []*job.Job
	memo  passMemo

	// new holds the arrivals since the last completed pass, for schedulers
	// whose arrivals-only path evaluates just those; buffers is false for
	// the ones that never read it, which therefore never grow it.
	buffers bool
	new     []*job.Job

	// starts is the backing array every pass builds its start list in: a
	// list is read before the next pass (sim.Scheduler's contract).
	starts []*job.Job
	// keys is the scratch an aging policy's resort keys the queue in.
	// sortedAt is the instant that resort last ordered the queue at, which
	// still holds while sorted is true: removals, and ordered inserts at
	// that instant, keep the order; Arrive's append clears it.
	keys     []float64
	sortedAt int64
	sorted   bool
}

// startList is the empty list a pass appends its starts to.
func (q *lifecycle) startList() []*job.Job { return q.starts[:0] }

// passStarts returns a pass's start list, keeping its backing array for the
// next pass; an empty list is nil.
func (q *lifecycle) passStarts(out []*job.Job) []*job.Job {
	q.starts = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// newLifecycle checks the two arguments every constructor takes and returns
// the empty queue state. ctor names the calling constructor in the panics.
func newLifecycle(ctor string, procs int, pol Policy, buffers bool) lifecycle {
	if procs < 1 {
		panic(fmt.Sprintf("sched: %s with %d processors", ctor, procs))
	}
	if pol == nil {
		panic(fmt.Sprintf("sched: %s with nil policy", ctor))
	}
	return lifecycle{pol: pol, memo: newPassMemo(pol), buffers: buffers}
}

// Arrive queues the job at its policy position: time-invariant policies
// keep the queue permanently sorted (and the job is noted as new for the
// next arrivals-only pass); dynamic ones append and are repaired by the
// next pass's resort.
func (q *lifecycle) Arrive(now int64, j *job.Job) {
	q.memo.noteArrival()
	if !q.memo.timeInv {
		q.queue = append(q.queue, j)
		q.sorted = false
		return
	}
	q.queue = orderedInsert(q.queue, j, q.pol, now)
	if q.buffers {
		q.new = append(q.new, j)
	}
}

// resort puts the queue in policy order at now before a full pass. Under a
// time-invariant policy it already is — arrivals are ordered-inserted,
// re-queued victims too, and every removal keeps the order of the rest — so
// only an aging policy's queue, which the clock reorders, is repaired, and
// at most once an instant: a second resort at the instant of the last, with
// nothing appended since, finds the queue as that one left it. The keys go
// in the engine's own scratch, which unlike the shared pool's is never
// emptied by a garbage collection, so a run allocates it once.
func (q *lifecycle) resort(now int64) {
	if q.memo.timeInv || q.sorted && q.sortedAt == now {
		q.memo.counts.ResortsSkipped++
		return
	}
	q.memo.counts.ResortsRun++
	if kp, ok := q.pol.(keyedPolicy); ok {
		q.keys = repairKeyed(q.queue, kp, now, q.keys)
	} else {
		sortQueue(q.queue, q.pol, now)
	}
	q.sortedAt, q.sorted = now, true
}

// WorkCounts reports the scheduler's work so far.
func (q *lifecycle) WorkCounts() WorkCounts { return q.memo.counts }

// QueuedJobs returns the jobs still waiting, in queue order.
func (q *lifecycle) QueuedJobs() []*job.Job {
	return append([]*job.Job(nil), q.queue...)
}

// LendQueue returns the live queue itself, in QueuedJobs order, without the
// copy (sim.QueueLender). The caller must not write it, and may read it only
// until the scheduler's next event.
func (q *lifecycle) LendQueue() ([]*job.Job, bool) { return q.queue, true }

// withdraw removes the queued job with j's ID, clearing the vacated slot, and
// returns it (nil when none is queued). settled is false for an arrival the
// arrivals buffer still holds: it leaves the buffer too and stops counting as
// an arrival, which puts the state back where the last pass left it. For any
// other job the caller decides whether its departure invalidates the memo.
func (q *lifecycle) withdraw(j *job.Job) (e *job.Job, settled bool) {
	i := slices.IndexFunc(q.queue, func(e *job.Job) bool { return e.ID == j.ID })
	if i < 0 {
		return nil, false
	}
	e = q.queue[i]
	q.queue = slices.Delete(q.queue, i, i+1) // clears the vacated slot
	if k := slices.Index(q.new, e); k >= 0 {
		q.new = slices.Delete(q.new, k, k+1)
		q.memo.arrivals--
		return e, false
	}
	return e, true
}

// clearNew empties the arrivals buffer without retaining job pointers.
func (q *lifecycle) clearNew() {
	clear(q.new)
	q.new = q.new[:0]
}

// endPass records a completed pass at now: the arrivals it covered are no
// longer new, and the memo holds nextAt as the time-trigger lower bound.
func (q *lifecycle) endPass(now, nextAt int64) {
	q.clearNew()
	q.memo.completePass(now, nextAt)
}
