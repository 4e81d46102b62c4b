package sched

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TestAllRegistryKindsConformance drives every scheduler kind the registry
// can build through the same busy workload under audit: every kind must
// schedule all jobs validly and deterministically. This is the conformance
// battery a new scheduler must pass to be registered.
func TestAllRegistryKindsConformance(t *testing.T) {
	const procs = 32
	kinds := append(Kinds(), "selective:3", "depth:8", "slack:0.5", "preemptive:5")
	jobs := genWorkload(stats.NewRNG(1700), 180, procs, 1)
	for _, kind := range kinds {
		for _, polName := range []string{"FCFS", "SJF", "XF"} {
			pol, err := PolicyByName(polName)
			if err != nil {
				t.Fatal(err)
			}
			mk, err := MakerFor(kind, pol)
			if err != nil {
				t.Fatalf("MakerFor(%q): %v", kind, err)
			}
			name := kind + "/" + polName
			t.Run(name, func(t *testing.T) {
				a := runOn(t, procs, jobs, mk(procs))
				b := runOn(t, procs, jobs, mk(procs))
				for id := range a {
					if a[id] != b[id] {
						t.Fatalf("%s: nondeterministic", name)
					}
				}
			})
		}
	}
}

// TestRegistryErrorMessagesNameTheKind keeps the operator-facing error
// useful.
func TestRegistryErrorMessagesNameTheKind(t *testing.T) {
	_, err := MakerFor("wat", FCFS{})
	if err == nil || !strings.Contains(err.Error(), "wat") {
		t.Fatalf("error should name the unknown kind: %v", err)
	}
	for _, r := range kindTable {
		if !strings.Contains(err.Error(), r.spelling) {
			t.Errorf("the unknown-kind error omits the spelling %q: %v", r.spelling, err)
		}
	}
	for _, spelling := range []string{"easy:bestfit", "easy:shortestfit", "selective:adaptive", "selective:<x>", "preemptive:<x>"} {
		if !strings.Contains(err.Error(), spelling) {
			t.Errorf("the unknown-kind error omits %q: %v", spelling, err)
		}
	}
	for _, kind := range Kinds() {
		if _, err := MakerFor(kind, FCFS{}); err != nil {
			t.Errorf("Kinds lists %q, which MakerFor rejects: %v", kind, err)
		}
	}
	for _, bad := range []string{"depth:x", "depth:0", "slack:x", "preemptive:x", "preemptive:0.5"} {
		if _, err := MakerFor(bad, FCFS{}); err == nil {
			t.Errorf("MakerFor(%q): want error", bad)
		}
	}
	// No comparison rejects a NaN, and slack × estimate of an infinity is
	// not an instant.
	for _, bad := range []string{"slack:NaN", "selective:NaN", "preemptive:NaN", "slack:Inf", "slack:-Inf"} {
		if _, err := MakerFor(bad, FCFS{}); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("MakerFor(%q): want an error naming the kind, got %v", bad, err)
		}
	}
	// A threshold no job ever reaches is legal: never promote, never preempt.
	for _, kind := range []string{"selective:Inf", "preemptive:Inf"} {
		if _, err := MakerFor(kind, FCFS{}); err != nil {
			t.Errorf("MakerFor(%q): %v", kind, err)
		}
	}
}

// kindCapabilities is TestSchedulerCapabilities' table: every registry kind,
// with the parameter values and variants worth telling apart, and the
// optional interfaces it satisfies. Tests that must cover every kind range
// over it.
var kindCapabilities = map[string]string{
	"conservative":       "Reservist TrackReservationWrites Waker Canceler Violations",
	"conservative-nc":    "Reservist TrackReservationWrites Waker Canceler Violations",
	"easy":               "Canceler",
	"easy:bestfit":       "Canceler",
	"easy:shortestfit":   "Canceler",
	"none":               "Canceler",
	"selective:adaptive": "Canceler Violations Promoted Threshold",
	"selective:3":        "Canceler Violations Promoted Threshold",
	"depth:2":            "Canceler",
	"slack:1":            "Reservist Guarantee TrackReservationWrites Canceler Violations",
	"slack:0":            "Reservist Guarantee TrackReservationWrites Canceler Violations",
	"preemptive:10":      "Canceler Preemptor",
}

// TestSchedulerCapabilities pins, kind by kind, the exact set of optional
// interfaces a scheduler satisfies. sim.StateHash, the serving layer's
// reservation capture and internal/audit all find these by interface
// assertion, so a method that embedding promotes by accident — Selective
// growing a Reservation, say — silently changes state hashes, checkpoints
// and /v1/jobs/{id} bytes. This table is where that fails loudly.
func TestSchedulerCapabilities(t *testing.T) {
	probes := []struct {
		name string
		has  func(s sim.Scheduler) bool
	}{
		{"Reservist", func(s sim.Scheduler) bool { _, ok := s.(Reservist); return ok }},
		{"Guarantee", func(s sim.Scheduler) bool {
			_, ok := s.(interface{ Guarantee(int) (int64, bool) })
			return ok
		}},
		{"TrackReservationWrites", func(s sim.Scheduler) bool {
			_, ok := s.(interface{ TrackReservationWrites() func() []int })
			return ok
		}},
		{"Waker", func(s sim.Scheduler) bool { _, ok := s.(sim.Waker); return ok }},
		{"Canceler", func(s sim.Scheduler) bool { _, ok := s.(Canceler); return ok }},
		{"Preemptor", func(s sim.Scheduler) bool { _, ok := s.(sim.Preemptor); return ok }},
		{"Violations", func(s sim.Scheduler) bool { _, ok := s.(interface{ Violations() []string }); return ok }},
		{"Promoted", func(s sim.Scheduler) bool {
			_, ok := s.(interface{ Promoted(int) (int64, bool) })
			return ok
		}},
		{"Threshold", func(s sim.Scheduler) bool { _, ok := s.(interface{ Threshold() float64 }); return ok }},
	}
	for _, kind := range Kinds() {
		if _, ok := kindCapabilities[kind]; !ok {
			t.Errorf("kind %q has no row in the capability table", kind)
		}
	}
	for kind, caps := range kindCapabilities {
		mk, err := MakerFor(kind, FCFS{})
		if err != nil {
			t.Fatal(err)
		}
		s := mk(8)
		var got []string
		for _, p := range probes {
			if p.has(s) {
				got = append(got, p.name)
			}
		}
		if g := strings.Join(got, " "); g != caps {
			t.Errorf("%s (%T) satisfies\n  %s\nwant\n  %s", kind, s, g, caps)
		}
	}
}
