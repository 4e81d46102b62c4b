package sched

import (
	"fmt"
	"math"
)

// EASY is aggressive backfilling as introduced by the EASY LoadLeveler
// scheduler (Lifka 1995; Skovira et al. 1996): only the job at the head of
// the priority queue holds a reservation. Any other queued job may leap
// forward as long as starting it now does not delay that single reservation
// — either it terminates (by its estimate) before the head's shadow time, or
// it fits within the "extra" processors the head does not need.
//
// The paper calls this simply "aggressive backfilling"; combined with SJF or
// XFactor priority it wins on average slowdown, at the cost of an unbounded
// worst-case delay for jobs that never reach the head (Tables 4 and 7).
//
// It is the shadow engine with a threshold no job reaches.
type EASY struct{ shadowEngine }

// BackfillOrder selects which eligible candidate an EASY backfill pass
// prefers — a classic tuning knob from the backfilling literature. The
// queue *priority* still decides who is head and holds the reservation;
// the order only breaks competition among backfill candidates.
type BackfillOrder int

const (
	// FirstFit takes candidates in priority order (the default and what
	// the paper simulates).
	FirstFit BackfillOrder = iota
	// BestFit prefers the widest job that fits, packing the hole tightly.
	BestFit
	// ShortestFit prefers the candidate with the smallest estimate,
	// minimising how long backfilled work lingers.
	ShortestFit
)

// String names the order.
func (o BackfillOrder) String() string {
	switch o {
	case FirstFit:
		return "firstfit"
	case BestFit:
		return "bestfit"
	case ShortestFit:
		return "shortestfit"
	default:
		return fmt.Sprintf("BackfillOrder(%d)", int(o))
	}
}

// NewEASY returns an aggressive backfilling scheduler for a machine with
// procs processors under the given priority policy. It panics if procs < 1
// or pol is nil.
func NewEASY(procs int, pol Policy) *EASY {
	return NewEASYWithOrder(procs, pol, FirstFit)
}

// NewEASYWithOrder returns EASY with an explicit backfill candidate order.
func NewEASYWithOrder(procs int, pol Policy, order BackfillOrder) *EASY {
	if order < FirstFit || order > ShortestFit {
		panic(fmt.Sprintf("sched: NewEASY with unknown backfill order %d", order))
	}
	return &EASY{newShadowEngine("NewEASY", procs, pol, order, math.Inf(1), 0)}
}

// Name returns e.g. "EASY(FCFS)" or "EASY(FCFS,bestfit)".
func (s *EASY) Name() string {
	if s.order == FirstFit {
		return "EASY(" + s.pol.Name() + ")"
	}
	return "EASY(" + s.pol.Name() + "," + s.order.String() + ")"
}
