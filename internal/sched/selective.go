package sched

import "fmt"

// Selective implements the selective-reservation backfilling strategy the
// paper proposes as future work (§6) and develops in the authors' follow-up
// ("Selective Reservation Strategies for Backfill Job Scheduling"): no job
// holds a reservation at first, so backfilling is as unconstrained as
// possible; a job is promoted to a guaranteed reservation only once its
// expansion factor (expected slowdown) crosses a threshold. Judiciously
// chosen, the threshold keeps the number of blocking reservations small
// while protecting exactly the jobs that are starving — bounding the
// worst-case turnaround that unmodified aggressive backfilling lets grow
// without limit.
//
// Threshold semantics: a fixed XFactorThreshold > 0 promotes a job when
// XFactor(j, now) >= threshold. With AdaptiveThreshold, the threshold is
// the running mean of the expansion factors of all jobs at their start
// times (at least 1), so it tracks the load the machine is actually
// delivering.
//
// It is the reservation engine granting at that threshold with no slack.
// Its reservations are deliberately not published as Reservation: they are
// read through Promoted, and state hashes do not cover them.
type Selective struct{ resvEngine }

// NewSelective returns a selective backfilling scheduler with a fixed
// expansion-factor threshold (must be >= 1). It panics on invalid
// arguments.
func NewSelective(procs int, pol Policy, threshold float64) *Selective {
	if threshold < 1 {
		panic(fmt.Sprintf("sched: NewSelective threshold %v < 1", threshold))
	}
	s := &Selective{newResvEngine("NewSelective", procs, pol, false)}
	s.threshold = threshold
	return s
}

// NewSelectiveAdaptive returns a selective backfilling scheduler whose
// threshold adapts to the running mean start-time expansion factor.
func NewSelectiveAdaptive(procs int, pol Policy) *Selective {
	s := &Selective{newResvEngine("NewSelectiveAdaptive", procs, pol, false)}
	s.adaptive = true
	return s
}

// Name returns e.g. "Selective(FCFS,xf>=5)" or "Selective(FCFS,adaptive)".
func (s *Selective) Name() string {
	if s.adaptive {
		return "Selective(" + s.pol.Name() + ",adaptive)"
	}
	return "Selective(" + s.pol.Name() + ",xf>=" + formatG(s.threshold) + ")"
}

// Promoted reports whether job id currently holds a reservation, and its
// guaranteed start if so.
func (s *Selective) Promoted(id int) (int64, bool) { return s.resv.Get(id) }
