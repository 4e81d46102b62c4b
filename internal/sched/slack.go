package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/job"
)

// SlackBased implements slack-based backfilling in the spirit of Talby &
// Feitelson (IPPS 1999), the third backfilling family the paper cites:
// like conservative backfilling every job holds a reservation, but an
// arriving job may take a slot that *delays* existing reservations, as long
// as no job is pushed past its guarantee. A job's guarantee is fixed when
// it first receives a reservation:
//
//	guarantee = first reserved start + SlackFactor × estimate
//
// so SlackFactor 0 degenerates to conservative backfilling (nobody may be
// delayed at all) while larger factors let short new work squeeze in ahead,
// trading bounded per-job delay for better packing.
//
// Displacement is pairwise: the arrival may displace one existing
// reservation, re-placing the displaced job within its guarantee. All
// other windows stay fixed, which keeps the scheduler free of
// list-scheduling anomalies — a replanned-from-scratch variant can push
// jobs past their guarantees even when capacity only grew (Graham's
// anomaly), so reservations here are persistent exactly as in conservative
// backfilling, and early completions compress jobs one at a time.
//
// It is the reservation engine granting on arrival with that slack, and the
// one shell that publishes the guarantees.
type SlackBased struct{ resvEngine }

// NewSlackBased returns a slack-based backfilling scheduler. It panics if
// procs < 1, pol is nil, or slackFactor < 0.
func NewSlackBased(procs int, pol Policy, slackFactor float64) *SlackBased {
	if slackFactor < 0 {
		panic(fmt.Sprintf("sched: NewSlackBased with slack factor %v", slackFactor))
	}
	s := &SlackBased{newResvEngine("NewSlackBased", procs, pol, true)}
	s.slack = slackFactor
	s.guarantees = true
	return s
}

// Name returns e.g. "Slack(FCFS,s=1)".
func (s *SlackBased) Name() string {
	return "Slack(" + s.pol.Name() + ",s=" + formatG(s.slack) + ")"
}

// Guarantee returns a queued job's latest permitted start.
func (s *SlackBased) Guarantee(id int) (int64, bool) {
	return s.guarantee.Get(id)
}

// Reservation returns a queued job's current reserved start.
func (s *SlackBased) Reservation(id int) (int64, bool) { return s.resv.Get(id) }

// TrackReservationWrites switches on the reservation write log and returns
// its drain; see Conservative.TrackReservationWrites. A job's guarantee is
// written once, together with its first reservation, so the log of
// reservation writes covers it.
func (s *SlackBased) TrackReservationWrites() (drain func() []int) { return s.resv.track() }

// QueuedJobs returns the jobs still waiting in job-ID order, not priority
// order. sim.Session.StateHash digests this order, so checkpoints written
// by earlier binaries verify only as long as it stays.
func (s *SlackBased) QueuedJobs() []*job.Job {
	out := s.resvEngine.QueuedJobs()
	slices.SortStableFunc(out, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// LendQueue declines: the live queue is not in QueuedJobs' order.
func (s *SlackBased) LendQueue() ([]*job.Job, bool) { return nil, false }
