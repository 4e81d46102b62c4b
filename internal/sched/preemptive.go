package sched

import (
	"fmt"

	"repro/internal/job"
)

// Preemptive implements selective preemption in the spirit of the authors'
// companion paper (Kettimuthu et al., "Selective preemption strategies for
// parallel job scheduling", ICPP 2002, cited as [6]): EASY backfilling
// augmented with suspension. When a queued job's expansion factor crosses
// PreemptThreshold and it still cannot start, the scheduler suspends the
// cheapest set of running victims — lowest priority first — wide enough to
// make room, subject to two safeguards that prevent thrash:
//
//   - a victim must have run at least MinRun seconds since its last
//     dispatch, so work always progresses between preemptions;
//   - a victim's own expansion factor must be strictly below the starving
//     job's, so preemption always flows from less- to more-starved work and
//     cycles cannot tighten.
//
// Suspended jobs return to the queue with their elapsed runtime banked;
// they resume (running only their remainder) like any other start, and
// their growing expansion factor makes them preempt-back candidates —
// bounded, not unbounded, by the safeguards above.
//
// It is the shadow engine with a finite threshold and first-fit backfill.
// The promoted Launch keeps the type usable anywhere a plain scheduler is
// expected (it simply never preempts); the engine uses LaunchAndPreempt
// when the scheduler is registered as a Preemptor.
type Preemptive struct{ shadowEngine }

// DefaultMinRun is the default guaranteed run quantum between preemptions.
const DefaultMinRun = 300

// NewPreemptive returns a preemptive EASY scheduler. threshold is the
// expansion factor at which a waiting job may trigger preemption (>= 1);
// minRun is the guaranteed quantum (>= 1; DefaultMinRun is a sensible
// choice). It panics on invalid arguments.
func NewPreemptive(procs int, pol Policy, threshold float64, minRun int64) *Preemptive {
	if threshold < 1 {
		panic(fmt.Sprintf("sched: NewPreemptive threshold %v < 1", threshold))
	}
	if minRun < 1 {
		panic(fmt.Sprintf("sched: NewPreemptive minRun %d < 1", minRun))
	}
	return &Preemptive{newShadowEngine("NewPreemptive", procs, pol, FirstFit, threshold, minRun)}
}

// Name returns e.g. "Preemptive(FCFS,xf>=5)".
func (s *Preemptive) Name() string {
	return "Preemptive(" + s.pol.Name() + ",xf>=" + formatG(s.threshold) + ")"
}

// LaunchAndPreempt implements sim.Preemptor.
func (s *Preemptive) LaunchAndPreempt(now int64) (starts, suspends []*job.Job) {
	return s.launch(now, true)
}
