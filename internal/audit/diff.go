package audit

import (
	"fmt"
	"sort"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// DiffOptions configure a differential run.
type DiffOptions struct {
	// Schedulers are sched.MakerFor kind strings; empty means sched.Kinds().
	Schedulers []string
	// Policies are priority policy names; empty means {"FCFS"}.
	Policies []string
	// SkipDeterminism disables the run-twice fingerprint check.
	SkipDeterminism bool
	// MaxRecorded caps violations recorded per cell (0: auditor default).
	MaxRecorded int
}

// CellResult is one scheduler × policy cell of a differential run.
type CellResult struct {
	// Kind and PolicyName identify the cell; Label is the scheduler's own
	// Name for reports.
	Kind       string
	PolicyName string
	Label      string
	// Starts maps job ID to first start time.
	Starts map[int]int64
	// Fingerprint is the schedule fingerprint (metrics.Fingerprint).
	Fingerprint uint64
	// Utilization is delivered work / (procs × makespan).
	Utilization float64
	// Violations are the cell's audit findings (empty on a clean run).
	Violations []Violation
	// RunErr records an engine failure (deadlock, double launch), if any.
	RunErr string
}

// DiffReport is the outcome of one differential run.
type DiffReport struct {
	Procs int
	Jobs  int
	// Exact reports whether every job's estimate equals its runtime, the
	// regime in which the strongest relational invariants hold.
	Exact bool
	// Cells holds every simulated cell in (scheduler, policy) axis order.
	Cells []CellResult
	// Failures lists every relational-invariant breach and per-cell audit
	// or engine failure, rendered for humans.
	Failures []string
}

// Err summarises the report as an error, or nil when everything agreed.
func (r *DiffReport) Err() error {
	if len(r.Failures) == 0 {
		return nil
	}
	return fmt.Errorf("audit: differential run found %d failures; first: %s",
		len(r.Failures), r.Failures[0])
}

// cellKey addresses a cell by axes.
type cellKey struct{ kind, pol string }

// Differential runs one workload through every scheduler × policy cell,
// each under an Auditor, and cross-checks relational invariants between the
// cells and against the brute-force oracle:
//
//   - every cell is violation-free and deterministic (same fingerprint when
//     re-run);
//   - with exact estimates, conservative(FCFS) and slack-0(FCFS) start
//     every job exactly when the independent RefConservative oracle says;
//   - with exact estimates, conservative backfilling is policy-invariant
//     (the paper's §4.1 observation) and identical to its no-compression
//     ablation (no early completions means nothing to compress);
//   - depth-1 lookahead and preemption at a threshold no job reaches are
//     schedule-identical to EASY, and slack factor 0 is schedule-identical
//     to conservative, under any estimates;
//   - every cell places every job exactly once, and no cell exceeds the
//     perfect-packing utilization bound of 1.
//
// Deliberately absent: "the no-backfill baseline's utilization is a lower
// bound for backfilling schedulers". Differential testing refuted it — EASY
// guarantees only the head of the queue, so a backfill may delay deeper
// queue jobs and stretch the makespan past the baseline's, even under FCFS
// with exact estimates. See DESIGN.md for the counterexample discussion.
//
// The returned error covers setup problems (unknown kind or policy);
// everything observed during simulation lands in the report.
func Differential(procs int, jobs []*job.Job, opt DiffOptions) (*DiffReport, error) {
	if procs < 1 {
		return nil, fmt.Errorf("audit: differential run with %d processors", procs)
	}
	kinds := opt.Schedulers
	if len(kinds) == 0 {
		kinds = sched.Kinds()
	}
	polNames := opt.Policies
	if len(polNames) == 0 {
		polNames = []string{"FCFS"}
	}
	policies := make([]sched.Policy, len(polNames))
	for i, name := range polNames {
		p, err := sched.PolicyByName(name)
		if err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
		policies[i] = p
	}

	rep := &DiffReport{Procs: procs, Jobs: len(jobs), Exact: allExact(jobs)}
	cells := make(map[cellKey]*CellResult, len(kinds)*len(policies))
	for _, kind := range kinds {
		for i, pol := range policies {
			mk, err := sched.MakerFor(kind, pol)
			if err != nil {
				return nil, fmt.Errorf("audit: %w", err)
			}
			cell := runCell(procs, jobs, kind, polNames[i], mk, pol, opt)
			if cell.RunErr != "" {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s/%s: engine: %s", kind, polNames[i], cell.RunErr))
			}
			for _, v := range cell.Violations {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s/%s: %s", kind, polNames[i], v))
			}
			if !opt.SkipDeterminism && cell.RunErr == "" {
				again := runCell(procs, jobs, kind, polNames[i], mk, pol, opt)
				if again.Fingerprint != cell.Fingerprint {
					rep.Failures = append(rep.Failures,
						fmt.Sprintf("%s/%s: nondeterministic: fingerprint %016x then %016x",
							kind, polNames[i], cell.Fingerprint, again.Fingerprint))
				}
			}
			cells[cellKey{kind, polNames[i]}] = cell
			rep.Cells = append(rep.Cells, *cell)
		}
	}

	rep.crossCheck(jobs, kinds, polNames, cells)
	return rep, nil
}

// runCell simulates one audited cell.
func runCell(procs int, jobs []*job.Job, kind, polName string, mk sched.Maker, pol sched.Policy, opt DiffOptions) *CellResult {
	opts := OptionsForKind(kind, pol)
	opts.MaxRecorded = opt.MaxRecorded
	s := mk(procs)
	a := New(procs, s, opts)
	cell := &CellResult{Kind: kind, PolicyName: polName, Label: s.Name()}
	ps, err := sim.Run(sim.Machine{Procs: procs}, jobs, a, nil)
	cell.Violations = a.Violations()
	if err != nil {
		cell.RunErr = err.Error()
		return cell
	}
	cell.Starts = make(map[int]int64, len(ps))
	var work float64
	first, last := int64(-1), int64(0)
	for _, p := range ps {
		cell.Starts[p.Job.ID] = p.Start
		work += float64(p.Job.Runtime) * float64(p.Job.Width)
		if first < 0 || p.Start < first {
			first = p.Start
		}
		if p.End > last {
			last = p.End
		}
	}
	if last > first && first >= 0 {
		cell.Utilization = work / (float64(procs) * float64(last-first))
	}
	cell.Fingerprint = metrics.Fingerprint(ps)
	return cell
}

// crossCheck evaluates the relational invariants between finished cells.
func (r *DiffReport) crossCheck(jobs []*job.Job, kinds, polNames []string, cells map[cellKey]*CellResult) {
	get := func(kind, pol string) *CellResult {
		c := cells[cellKey{kind, pol}]
		if c == nil || c.RunErr != "" {
			return nil
		}
		return c
	}

	// Oracle agreement: conservative semantics are unambiguous under FCFS
	// with exact estimates, and slack 0 must degenerate to them.
	if r.Exact {
		var oracle map[int]int64
		for _, kind := range []string{"conservative", "conservative-nc", "slack:0"} {
			c := get(kind, "FCFS")
			if c == nil {
				continue
			}
			if oracle == nil {
				oracle = OracleStarts(r.Procs, jobs)
			}
			r.compareStarts(fmt.Sprintf("%s/FCFS vs brute-force oracle", kind), c.Starts, oracle)
		}

		// §4.1: with exact estimates conservative backfilling is identical
		// under every priority policy, and compression never fires, so the
		// no-compression ablation matches too.
		var ref *CellResult
		for _, pol := range polNames {
			for _, kind := range []string{"conservative", "conservative-nc"} {
				c := get(kind, pol)
				if c == nil {
					continue
				}
				if ref == nil {
					ref = c
					continue
				}
				if c.Fingerprint != ref.Fingerprint {
					r.Failures = append(r.Failures, fmt.Sprintf(
						"§4.1 equivalence: %s/%s schedule differs from %s/%s under exact estimates",
						c.Kind, c.PolicyName, ref.Kind, ref.PolicyName))
				}
			}
		}
	}

	// Schedule identities that hold under any estimates: depth-1 ≡ EASY,
	// preemption that never triggers ≡ EASY and slack-0 ≡ conservative (two
	// formulations of the same policy).
	for _, pol := range polNames {
		r.compareFingerprints(get("depth:1", pol), get("easy", pol), pol)
		r.compareFingerprints(get("preemptive:1e18", pol), get("easy", pol), pol)
		r.compareFingerprints(get("slack:0", pol), get("conservative", pol), pol)
	}

	// Per-cell absolutes that hold for every scheduler under any estimates:
	// each cell must place the whole workload, and delivered work can never
	// exceed procs × makespan (utilization ≤ 1). A cross-cell utilization
	// comparison against the no-backfill baseline is deliberately not made:
	// differential runs produced counterexamples to the intuitive
	// "backfilling never hurts utilization" claim even for EASY under FCFS
	// with exact estimates, because only the head job is protected from
	// backfill-induced delay.
	const tol = 1e-9
	for _, kind := range kinds {
		for _, pol := range polNames {
			c := get(kind, pol)
			if c == nil {
				continue
			}
			if len(c.Starts) != r.Jobs {
				r.Failures = append(r.Failures, fmt.Sprintf(
					"coverage: %s/%s placed %d of %d jobs",
					kind, pol, len(c.Starts), r.Jobs))
			}
			if c.Utilization > 1+tol {
				r.Failures = append(r.Failures, fmt.Sprintf(
					"packing bound: %s/%s utilization %.6f exceeds 1",
					kind, pol, c.Utilization))
			}
		}
	}
}

// compareStarts records a failure for every job whose start differs.
func (r *DiffReport) compareStarts(what string, got, want map[int]int64) {
	ids := make([]int, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		g, ok := got[id]
		if !ok {
			r.Failures = append(r.Failures, fmt.Sprintf("%s: job %d never placed", what, id))
			continue
		}
		if g != want[id] {
			r.Failures = append(r.Failures,
				fmt.Sprintf("%s: job %d starts at %d, oracle says %d", what, id, g, want[id]))
		}
	}
}

// compareFingerprints records a failure when two supposedly identical
// formulations produced different schedules.
func (r *DiffReport) compareFingerprints(a, b *CellResult, pol string) {
	if a == nil || b == nil {
		return
	}
	if a.Fingerprint != b.Fingerprint {
		r.Failures = append(r.Failures, fmt.Sprintf(
			"schedule identity: %s and %s differ under %s (%016x vs %016x)",
			a.Label, b.Label, pol, a.Fingerprint, b.Fingerprint))
	}
}

// allExact reports whether every job's estimate equals its actual runtime.
func allExact(jobs []*job.Job) bool {
	for _, j := range jobs {
		if j.Estimate != j.Runtime {
			return false
		}
	}
	return true
}
