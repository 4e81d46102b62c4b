package sched

import (
	"fmt"

	"repro/internal/job"
)

// lifecycle is the part of a scheduler that does not depend on its
// backfilling rule: the waiting queue kept in policy order, the pass memo
// every queue change must be reported to, and the buffer of arrivals since
// the last pass that the arrivals-only fast paths read. Every scheduler
// embeds it, so Arrive, Cancel and QueuedJobs are written once; a scheduler
// whose arrival or withdrawal touches more than the queue (a reservation to
// grant or release, a suspended job to refuse) declares its own method and
// calls this one.
type lifecycle struct {
	pol   Policy
	queue []*job.Job
	memo  passMemo

	// new holds the arrivals since the last completed pass, for schedulers
	// whose arrivals-only path evaluates just those; buffers is false for
	// the ones that never read it, which therefore never grow it.
	buffers bool
	new     []*job.Job
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
// only an aging policy's queue, which the clock reorders, is repaired.
func (q *lifecycle) resort(now int64) {
	if !q.memo.timeInv {
		sortQueue(q.queue, q.pol, now)
	}
}

// QueuedJobs returns the jobs still waiting, in queue order.
func (q *lifecycle) QueuedJobs() []*job.Job {
	return append([]*job.Job(nil), q.queue...)
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
