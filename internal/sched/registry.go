package sched

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// formatG formats a scheduler parameter in its name the way %g does. The
// names are built without fmt, whose pooled printers allocate anew whenever
// a run moves to another processor, so a run's allocations stay the same
// from one run to the next.
func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Maker constructs a fresh scheduler for a machine with the given processor
// count. Experiments use Makers so that every simulation starts from clean
// scheduler state.
type Maker func(procs int) sim.Scheduler

// kindRow is one spelling MakerFor accepts: an exact name, or a family
// "prefix:<arg>" whose argument is a number. kindTable is the only list of
// them — parsing, Kinds, the unknown-kind help text and the differential
// fuzzer's scheduler matrix are all read off it.
type kindRow struct {
	spelling string // "easy", or "depth:<k>" for a family
	// sample is the argument of the one instance of a family that Kinds
	// lists ("" lists none).
	sample string
	// arg names a family's argument in errors; min is the smallest value
	// accepted, integer arguments are parsed as such, and a finite one may
	// not be an infinity (one that is multiplied, not compared against).
	arg     string
	min     float64
	integer bool
	finite  bool
	mk      func(procs int, pol Policy, x float64) sim.Scheduler
}

var kindTable = []kindRow{
	// conservative backfilling
	{spelling: "conservative",
		mk: func(procs int, pol Policy, _ float64) sim.Scheduler { return NewConservative(procs, pol) }},
	// conservative without compression (ablation)
	{spelling: "conservative-nc",
		mk: func(procs int, pol Policy, _ float64) sim.Scheduler { return NewConservativeNoCompression(procs, pol) }},
	// aggressive (EASY) backfilling
	{spelling: "easy",
		mk: func(procs int, pol Policy, _ float64) sim.Scheduler { return NewEASY(procs, pol) }},
	// EASY preferring the widest backfill candidate
	{spelling: "easy:bestfit",
		mk: func(procs int, pol Policy, _ float64) sim.Scheduler { return NewEASYWithOrder(procs, pol, BestFit) }},
	// EASY preferring the shortest backfill candidate
	{spelling: "easy:shortestfit",
		mk: func(procs int, pol Policy, _ float64) sim.Scheduler { return NewEASYWithOrder(procs, pol, ShortestFit) }},
	// no backfilling
	{spelling: "none",
		mk: func(procs int, pol Policy, _ float64) sim.Scheduler { return NewNoBackfill(procs, pol) }},
	// selective with the adaptive threshold
	{spelling: "selective:adaptive",
		mk: func(procs int, pol Policy, _ float64) sim.Scheduler { return NewSelectiveAdaptive(procs, pol) }},
	// selective backfilling, fixed xfactor threshold x
	{spelling: "selective:<x>",
		arg: "selective threshold", min: 1,
		mk: func(procs int, pol Policy, x float64) sim.Scheduler { return NewSelective(procs, pol, x) }},
	// lookahead-k backfilling (k=1 behaves like EASY)
	{spelling: "depth:<k>", sample: "2",
		arg: "depth", min: 1, integer: true,
		mk: func(procs int, pol Policy, k float64) sim.Scheduler { return NewDepthK(procs, pol, int(k)) }},
	// slack-based backfilling with slack factor s
	{spelling: "slack:<s>", sample: "1",
		arg: "slack factor", min: 0, finite: true,
		mk: func(procs int, pol Policy, sf float64) sim.Scheduler { return NewSlackBased(procs, pol, sf) }},
	// EASY with selective preemption at xfactor x
	{spelling: "preemptive:<x>", sample: "10",
		arg: "preemption threshold", min: 1,
		mk: func(procs int, pol Policy, x float64) sim.Scheduler {
			return NewPreemptive(procs, pol, x, DefaultMinRun)
		}},
}

// parse matches kind against the row. matched is false when the row is not
// the one spelled; otherwise x is the family's argument (0 for an exact
// name) or err says what is wrong with it.
func (r kindRow) parse(kind string) (x float64, matched bool, err error) {
	prefix, _, family := strings.Cut(r.spelling, "<")
	if !family {
		return 0, kind == r.spelling, nil
	}
	text, ok := strings.CutPrefix(kind, prefix)
	if !ok {
		return 0, false, nil
	}
	if r.integer {
		var k int
		k, err = strconv.Atoi(text)
		x = float64(k)
	} else {
		x, err = strconv.ParseFloat(text, 64)
	}
	if err != nil {
		return 0, true, fmt.Errorf("sched: bad %s in %q: %w", r.arg, kind, err)
	}
	if math.IsNaN(x) || r.finite && math.IsInf(x, 0) {
		return 0, true, fmt.Errorf("sched: bad %s in %q: %v is out of range", r.arg, kind, x)
	}
	if x < r.min {
		return 0, true, fmt.Errorf("sched: %s %v < %v", r.arg, x, r.min)
	}
	return x, true, nil
}

// MakerFor returns a Maker by scheduler kind name: one of the spellings in
// kindTable (the error for an unknown kind lists them all), with a number in
// place of a family's <arg>. The policy argument selects the queue priority.
func MakerFor(kind string, pol Policy) (Maker, error) {
	for _, r := range kindTable {
		x, matched, err := r.parse(kind)
		if err != nil {
			return nil, err
		}
		if matched {
			mk := r.mk
			return func(procs int) sim.Scheduler { return mk(procs, pol, x) }, nil
		}
	}
	spellings := make([]string, len(kindTable))
	for i, r := range kindTable {
		spellings[i] = r.spelling
	}
	return nil, fmt.Errorf("sched: unknown scheduler kind %q (want %s)", kind, strings.Join(spellings, ", "))
}

// Kinds lists representative scheduler kind names MakerFor accepts: every
// exact name, and one instance of each family that has a sample.
func Kinds() []string {
	var out []string
	for _, r := range kindTable {
		prefix, _, family := strings.Cut(r.spelling, "<")
		if !family || r.sample != "" {
			out = append(out, prefix+r.sample)
		}
	}
	return out
}
