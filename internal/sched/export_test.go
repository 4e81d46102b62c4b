package sched

// Check exposes the profile invariant checker to tests.
func (p *Profile) Check() error { return p.check() }

// forceFullPasses disables every skip and fast path of the scheduler that
// embeds q; FuzzLaunchIncremental builds its reference copies this way, so
// both sides of the differential share one implementation.
func (q *lifecycle) forceFullPasses() { q.memo.forceFull = true }

// queueInOrder reports whether the queue of the scheduler that embeds q is
// in policy order at now — the precondition that lets resort do nothing
// under a time-invariant policy, and under an aging one at the instant it
// last ran.
func (q *lifecycle) queueInOrder(now int64) bool { return queueSorted(q.queue, q.pol, now) }
