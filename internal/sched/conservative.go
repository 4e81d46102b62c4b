package sched

import "fmt"

// Conservative implements conservative backfilling (Mu'alem & Feitelson
// 2001): every job receives a start-time reservation the moment it enters
// the system, at the earliest instant that does not delay any previously
// existing guarantee. A job may move forward later — when an early
// completion opens a hole — but its guaranteed start never moves back.
//
// Because reservations are granted in arrival order, the queue priority
// policy matters only when holes appear: queued jobs are then reconsidered
// ("compressed") in priority order. With perfectly accurate user estimates
// no holes ever appear, which is exactly the paper's §4.1 observation that
// all priority policies yield the identical schedule.
//
// It is the reservation engine granting on arrival with no slack.
type Conservative struct{ resvEngine }

// NewConservative returns a conservative backfilling scheduler for a
// machine with procs processors under the given priority policy. It panics
// if procs < 1 or pol is nil.
func NewConservative(procs int, pol Policy) *Conservative {
	return &Conservative{newResvEngine("NewConservative", procs, pol, true)}
}

// NewConservativeNoCompression returns a conservative scheduler that never
// re-places reservations when jobs finish early: holes left by early
// completions stay unexploited. It is the ablation for DESIGN.md decision 3
// — compression is where the priority policy earns its keep under
// inaccurate estimates, and this variant quantifies that.
func NewConservativeNoCompression(procs int, pol Policy) *Conservative {
	s := NewConservative(procs, pol)
	s.noCompress = true
	return s
}

// Name returns e.g. "Conservative(FCFS)" or "ConservativeNC(FCFS)" for the
// no-compression ablation.
func (s *Conservative) Name() string {
	if s.noCompress {
		return fmt.Sprintf("ConservativeNC(%s)", s.pol.Name())
	}
	return fmt.Sprintf("Conservative(%s)", s.pol.Name())
}

// Reservation returns the guaranteed start time of a queued job and whether
// the job is currently queued. Tests use it to verify the no-delay
// guarantee.
func (s *Conservative) Reservation(id int) (int64, bool) { return s.resv.get(id) }

// TrackReservationWrites switches on the reservation write log and returns
// its drain: each call yields the IDs of the jobs whose reservation was
// granted or moved since the previous call, valid until the scheduler is
// next called. internal/audit probes for this method and, finding it,
// re-checks only those jobs after an event; a wrapper that does not forward
// it is audited by a scan of every queued job instead.
func (s *Conservative) TrackReservationWrites() (drain func() []int) { return s.resv.track() }

// NextWake reports the earliest pending reservation. With compression
// enabled every startable job is pulled to "now" at some completion event,
// so no wake-ups are needed; the no-compression ablation's fixed
// reservations can land between events and need a timer.
func (s *Conservative) NextWake(now int64) int64 {
	if !s.noCompress {
		return 0
	}
	var next int64
	s.resv.each(func(_ int, t int64) {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	})
	return next
}
