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
// so it repairs by insertion — under a keyed policy with repairKeyed, on
// keys in a pooled scratch. Every policy induces a strict total order, so
// the permutation is unique.
func sortQueue(queue []*job.Job, pol Policy, now int64) {
	if len(queue) < 2 {
		return
	}
	if kp, ok := pol.(keyedPolicy); ok {
		kb := keyPool.Get().(*[]float64)
		*kb = repairKeyed(queue, kp, now, *kb)
		keyPool.Put(kb)
		return
	}
	repairOrder(queue, func(a, b *job.Job) int { return policyCmp(pol, a, b, now) })
}

// repairOrder sorts s by cmp, a strict total order. It is an insertion sort
// for a nearly sorted s: each element out of place is shifted back to its
// position, and once the shifts exceed 8·len(s) — far from sorted — the
// library sort finishes the job.
func repairOrder(s []*job.Job, cmp func(a, b *job.Job) int) {
	budget := 8 * len(s)
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
		if budget -= i - k; budget < 0 {
			slices.SortFunc(s, cmp)
			return
		}
	}
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
	// keys writes each job's priority key at now (larger sorts earlier) to
	// the same index of dst, which is as long as jobs.
	keys(dst []float64, jobs []*job.Job, now int64)
}

func (XF) keys(dst []float64, jobs []*job.Job, now int64) {
	for i, j := range jobs {
		dst[i] = XFactor(j, now)
	}
}

func (WFP) keys(dst []float64, jobs []*job.Job, now int64) {
	for i, j := range jobs {
		dst[i] = XFactor(j, now) * float64(j.Width)
	}
}

// keyPool holds key scratch for the callers of sortQueue that keep none of
// their own (the forecast's dry runs), safely under the runner's parallel
// experiments. The scratch holds no pointers, so a pooled one pins no job.
var keyPool = sync.Pool{New: func() any { return new([]float64) }}

// repairKeyed orders queue under a keyed policy at now, as repairOrder
// would: each job's key is computed once into keys, which the insertion
// repair permutes in step with the queue, so a job pointer is written only
// when its job moves. The comparison mirrors the policies' Less exactly:
// key descending, then the shared tie-break when the keys are equal. Past
// 8·len(queue) shifts the library sort finishes on the policy itself. It
// returns keys, grown, for the next repair.
func repairKeyed(queue []*job.Job, pol keyedPolicy, now int64, keys []float64) []float64 {
	keys = slices.Grow(keys[:0], len(queue))[:len(queue)]
	pol.keys(keys, queue, now)
	budget := 8 * len(queue)
	for i := 1; i < len(queue); i++ {
		x, kx := queue[i], keys[i]
		if kx < keys[i-1] || kx == keys[i-1] && !tieBreak(x, queue[i-1]) {
			continue
		}
		k := i
		for k > 0 && (kx > keys[k-1] || kx == keys[k-1] && tieBreak(x, queue[k-1])) {
			queue[k], keys[k] = queue[k-1], keys[k-1]
			k--
		}
		queue[k], keys[k] = x, kx
		if budget -= i - k; budget < 0 {
			slices.SortFunc(queue, func(a, b *job.Job) int { return policyCmp(pol, a, b, now) })
			break
		}
	}
	return keys
}

// policyCmp lifts a policy's strict-weak-order Less into a three-way
// comparison, the form the library sorts and repairOrder take. Both calls
// are needed: returning 0 for "not less" alone would not be antisymmetric,
// and the policies' comparator-totality tests pin exactly the properties
// (totality, antisymmetry, transitivity) that make this lift
// order-preserving.
func policyCmp(pol Policy, a, b *job.Job, now int64) int {
	if pol.Less(a, b, now) {
		return -1
	}
	if pol.Less(b, a, now) {
		return 1
	}
	return 0
}
