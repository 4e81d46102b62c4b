package sched

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/job"
)

// Policy orders the idle queue. Less reports whether a should be considered
// for scheduling before b at instant now. Policies must induce a strict
// total order for any fixed now (the implementations here all fall back to
// arrival time and then job ID), so queue ordering — and therefore the whole
// simulation — is deterministic.
//
// XFactor-style policies are dynamic: a job's priority rises as it waits, so
// schedulers re-sort the queue at every scheduling event rather than keeping
// a static order.
type Policy interface {
	// Name is the short label used in reports: FCFS, SJF, XF, ...
	Name() string
	// Less orders jobs a before b at time now.
	Less(a, b *job.Job, now int64) bool
}

// tieBreak orders by arrival then ID; every policy ends with it so the
// ordering is total.
func tieBreak(a, b *job.Job) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// FCFS is first-come first-served: a job's priority is its wait time, i.e.
// earlier arrivals come first. This is the most common production policy
// and the paper's default.
type FCFS struct{}

// Name returns "FCFS".
func (FCFS) Name() string { return "FCFS" }

// Less orders by arrival time.
func (FCFS) Less(a, b *job.Job, _ int64) bool { return tieBreak(a, b) }

// TimeInvariant reports that FCFS compares static job fields only.
func (FCFS) TimeInvariant() bool { return true }

// SJF is shortest-job first: "the priority of a job is inversely
// proportional to its user estimated run time". Ties break FCFS.
type SJF struct{}

// Name returns "SJF".
func (SJF) Name() string { return "SJF" }

// Less orders by user estimate, shortest first.
func (SJF) Less(a, b *job.Job, _ int64) bool {
	if a.Estimate != b.Estimate {
		return a.Estimate < b.Estimate
	}
	return tieBreak(a, b)
}

// TimeInvariant reports that SJF compares static job fields only.
func (SJF) TimeInvariant() bool { return true }

// LJF is longest-job first, the mirror of SJF, included as an extension for
// ablation studies (it is the classic bad idea that starves short jobs).
type LJF struct{}

// Name returns "LJF".
func (LJF) Name() string { return "LJF" }

// Less orders by user estimate, longest first.
func (LJF) Less(a, b *job.Job, _ int64) bool {
	if a.Estimate != b.Estimate {
		return a.Estimate > b.Estimate
	}
	return tieBreak(a, b)
}

// TimeInvariant reports that LJF compares static job fields only.
func (LJF) TimeInvariant() bool { return true }

// XFactor computes a job's expansion factor at time now:
//
//	xfactor = (wait + estimated runtime) / estimated runtime
//
// A job that has not waited has xfactor 1; short jobs' xfactors grow much
// faster than long jobs', so XFactor implicitly favours short jobs while
// still aging long ones (the paper's "expansion Factor" policy).
func XFactor(j *job.Job, now int64) float64 {
	wait := now - j.Arrival
	if wait < 0 {
		wait = 0
	}
	est := j.Estimate
	if est < 1 {
		est = 1
	}
	return float64(wait+est) / float64(est)
}

// XF is the expansion-factor policy: highest xfactor first.
type XF struct{}

// Name returns "XF".
func (XF) Name() string { return "XF" }

// Less orders by xfactor at now, largest first.
func (XF) Less(a, b *job.Job, now int64) bool {
	xa, xb := XFactor(a, now), XFactor(b, now)
	if xa != xb {
		return xa > xb
	}
	return tieBreak(a, b)
}

// WFP is a width-weighted aging policy (an extension beyond the paper): it
// scales the expansion factor by the job's width so that wide jobs — the
// ones that struggle to backfill — age faster. Included for the selective
// backfilling and ablation experiments.
type WFP struct{}

// Name returns "WFP".
func (WFP) Name() string { return "WFP" }

// Less orders by width-weighted xfactor, largest first.
func (WFP) Less(a, b *job.Job, now int64) bool {
	xa := XFactor(a, now) * float64(a.Width)
	xb := XFactor(b, now) * float64(b.Width)
	if xa != xb {
		return xa > xb
	}
	return tieBreak(a, b)
}

// Policies returns the registry of named priority policies.
func Policies() []Policy {
	return []Policy{FCFS{}, SJF{}, XF{}, LJF{}, WFP{}}
}

// PolicyByName looks up a policy by its Name (case-sensitive).
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("sched: unknown policy %q", name)
}

// sortQueue orders jobs in place by policy priority at time now. What
// reaches it is an aging policy's queue, in order at the previous pass and
// since reordered slightly by the clock, or a short batch of arrivals (a
// queue under a time-invariant policy stays ordered; see lifecycle.resort),
// so it repairs by insertion — under a keyed policy on a scratch keyed once.
// Every policy induces a strict total order, so the permutation is unique.
func sortQueue(queue []*job.Job, pol Policy, now int64) {
	if len(queue) < 2 {
		return
	}
	if kp, ok := pol.(keyedPolicy); ok {
		sortQueueKeyed(queue, kp, now)
		return
	}
	repairOrder(queue, func(a, b *job.Job) int { return policyCmp(pol, a, b, now) })
}

// repairOrder sorts s by cmp, a strict total order, and reports whether
// anything moved. It is an insertion sort for a nearly sorted s: each
// element out of place is shifted back to its position, and once the
// shifts exceed 8·len(s) — far from sorted — the library sort finishes the
// job.
func repairOrder[E any](s []E, cmp func(a, b E) int) bool {
	budget := 8 * len(s)
	moved := false
	for i := 1; i < len(s); i++ {
		if cmp(s[i-1], s[i]) <= 0 {
			continue
		}
		x, k := s[i], i
		for k > 0 && cmp(x, s[k-1]) < 0 {
			s[k] = s[k-1]
			k--
		}
		s[k] = x
		moved = true
		if budget -= i - k; budget < 0 {
			slices.SortFunc(s, cmp)
			return true
		}
	}
	return moved
}

// queueSorted reports whether queue is already in pol's order at now.
func queueSorted(queue []*job.Job, pol Policy, now int64) bool {
	for i := 1; i < len(queue); i++ {
		if pol.Less(queue[i], queue[i-1], now) {
			return false
		}
	}
	return true
}

// keyedPolicy is implemented by time-dependent policies whose ordering is a
// single float64 key (largest first) ahead of the arrival/ID tie-break.
// Sorting through it computes each job's key exactly once per epoch — the
// instant the sort runs at — instead of twice per comparison; the cache is
// valid only within that epoch, because the keys themselves move with time.
type keyedPolicy interface {
	Policy
	// key returns the job's priority key at now (larger sorts earlier).
	key(j *job.Job, now int64) float64
}

func (XF) key(j *job.Job, now int64) float64 { return XFactor(j, now) }

func (WFP) key(j *job.Job, now int64) float64 { return XFactor(j, now) * float64(j.Width) }

// keyedJob pairs one queue entry with its memoized key for the current
// sort epoch.
type keyedJob struct {
	key float64
	j   *job.Job
}

// keyScratch pools the decorated slices sortQueueKeyed repairs, so keyed
// sorts stop allocating once a scratch of the working size exists. A pool
// (rather than per-scheduler scratch) keeps the path shared by every caller
// of sortQueue — compression passes included — and safe under the runner's
// parallel experiments.
var keyScratch = sync.Pool{New: func() any { return new([]keyedJob) }}

// sortQueueKeyed orders a queue under a keyed (time-dependent) policy by
// decorating each job with its key once and repairing the decorated slice;
// the queue is written back only when something moved. The comparison
// mirrors the policies' Less exactly: key descending, then the shared
// tie-break.
func sortQueueKeyed(queue []*job.Job, pol keyedPolicy, now int64) {
	sp := keyScratch.Get().(*[]keyedJob)
	scratch := (*sp)[:0]
	for _, j := range queue {
		scratch = append(scratch, keyedJob{key: pol.key(j, now), j: j})
	}
	moved := repairOrder(scratch, func(a, b keyedJob) int {
		switch {
		case a.key > b.key:
			return -1
		case a.key < b.key:
			return 1
		case tieBreak(a.j, b.j):
			return -1
		case tieBreak(b.j, a.j):
			return 1
		default:
			return 0
		}
	})
	for i := range scratch {
		if moved {
			queue[i] = scratch[i].j
		}
		scratch[i].j = nil // no stale job pointers parked in the pool
	}
	*sp = scratch
	keyScratch.Put(sp)
}

// policyCmp lifts a policy's strict-weak-order Less into the three-way
// comparison slices.SortStableFunc requires. Both calls are needed:
// returning 0 for "not less" alone would not be antisymmetric, and the
// policies' comparator-totality tests pin exactly the properties (totality,
// antisymmetry, transitivity) that make this lift order-preserving.
func policyCmp(pol Policy, a, b *job.Job, now int64) int {
	if pol.Less(a, b, now) {
		return -1
	}
	if pol.Less(b, a, now) {
		return 1
	}
	return 0
}
