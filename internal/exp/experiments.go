package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	// ID is the paper artifact name: "Table1" … "Table7", "Figure1" …
	// "Figure4", plus the extensions "Equivalence", "Selective",
	// "LoadSweep".
	ID string
	// Description summarises what the artifact shows.
	Description string
	// Run executes the experiment against the Lab and returns its tables.
	Run func(l *Lab) ([]*Table, error)
}

// backfillPolicies are the priority policies the paper crosses with the
// two backfilling schemes.
var backfillPolicies = []string{"FCFS", "SJF", "XF"}

// All returns the experiment registry: the paper's artifacts in paper
// order, followed by the extension and ablation studies.
func All() []Experiment {
	return append(paperExperiments(), extensionExperiments()...)
}

// paperExperiments lists the artifacts the paper itself contains.
func paperExperiments() []Experiment {
	return []Experiment{
		{ID: "Table1", Description: "Job categorization criteria (runtime 1h × width 8 procs)", Run: runTable1},
		{ID: "Table2", Description: "CTC trace category distribution", Run: runTable2},
		{ID: "Table3", Description: "SDSC trace category distribution", Run: runTable3},
		{ID: "Figure1", Description: "Overall slowdown & turnaround: conservative vs EASY × priority, accurate estimates", Run: runFigure1},
		{ID: "Figure2", Description: "Category-wise % slowdown change, EASY vs conservative (CTC, accurate)", Run: runFigure2},
		{ID: "Table4", Description: "Worst-case turnaround, accurate estimates (CTC)", Run: runTable4},
		{ID: "Table5", Description: "Systematic overestimation R∈{1,2,4}: conservative (CTC)", Run: runTable5},
		{ID: "Table6", Description: "Systematic overestimation R∈{1,2,4}: EASY (CTC)", Run: runTable6},
		{ID: "Figure3", Description: "Conservative vs EASY with actual user estimates", Run: runFigure3},
		{ID: "Figure4", Description: "Well vs poorly estimated jobs: accurate vs actual estimates (CTC)", Run: runFigure4},
		{ID: "Table7", Description: "Worst-case turnaround, actual estimates (CTC)", Run: runTable7},
		{ID: "Equivalence", Description: "§4.1 priority equivalence under conservative backfilling", Run: runEquivalence},
		{ID: "Selective", Description: "§6 future work: selective backfilling vs conservative and EASY", Run: runSelective},
		{ID: "LoadSweep", Description: "Extension: slowdown and utilization across offered loads", Run: runLoadSweep},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// IDs lists all experiment IDs in order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// --- Table 1 --------------------------------------------------------------

func runTable1(l *Lab) ([]*Table, error) {
	th := job.PaperThresholds()
	t := &Table{
		ID:      "Table1",
		Title:   "Categorization of jobs based on their runtime and width",
		Headers: []string{"", fmt.Sprintf("<= %d procs", th.MaxNarrowWidth), fmt.Sprintf("> %d procs", th.MaxNarrowWidth)},
	}
	t.AddRow(fmt.Sprintf("<= %d s", th.MaxShortRuntime), "SN", "SW")
	t.AddRow(fmt.Sprintf("> %d s", th.MaxShortRuntime), "LN", "LW")
	return []*Table{t}, nil
}

// --- Tables 2 & 3: trace category mixes ------------------------------------

func runCategoryTable(l *Lab, id, traceName string, target job.Mix) ([]*Table, error) {
	jobs, err := l.Workload(traceName, l.P.HighLoad, "exact")
	if err != nil {
		return nil, err
	}
	mix := job.CategoryMix(jobs, job.PaperThresholds())
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("%s trace job distribution (%d jobs)", traceName, len(jobs)),
		Headers: []string{"category", "generated %", "paper %"},
		Notes:   []string{"generated mix should track the paper's within sampling noise"},
	}
	for _, c := range job.Categories() {
		t.AddRow(c.String(), fmt.Sprintf("%.2f", 100*mix[c]), fmt.Sprintf("%.2f", 100*target[c]))
	}
	return []*Table{t}, nil
}

func runTable2(l *Lab) ([]*Table, error) {
	return runCategoryTable(l, "Table2", "CTC", ctcMix())
}

func runTable3(l *Lab) ([]*Table, error) {
	return runCategoryTable(l, "Table3", "SDSC", sdscMix())
}

// The paper mixes, re-declared here to avoid exp depending on workload's
// internals in table output. Kept in sync by a test.
func ctcMix() job.Mix  { return job.Mix{0.4506, 0.1184, 0.3026, 0.1284} }
func sdscMix() job.Mix { return job.Mix{0.4724, 0.2144, 0.2994, 0.0138} }

// --- Figures 1 & 3: conservative vs EASY overall ----------------------------

// runOverall crosses conservative and EASY with every priority policy on
// both traces at high load, under one estimate model.
func runOverall(l *Lab, id, estModel, estTitle string, notes ...string) ([]*Table, error) {
	var tables []*Table
	for _, traceName := range []string{"CTC", "SDSC"} {
		t := &Table{
			ID:      id,
			Title:   fmt.Sprintf("Conservative vs EASY, %s, high load — %s trace", estTitle, traceName),
			Headers: []string{"scheduler", "avg slowdown", "avg turnaround (s)"},
			Notes:   notes,
		}
		for _, kind := range []string{"conservative", "easy"} {
			for _, pol := range backfillPolicies {
				r, err := l.Result(traceName, l.P.HighLoad, estModel, kind, pol)
				if err != nil {
					return nil, err
				}
				t.AddRow(r.Report.Scheduler, r.Report.Overall.MeanSlowdown, r.Report.Overall.MeanTurnaround)
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFigure1(l *Lab) ([]*Table, error) {
	return runOverall(l, "Figure1", "exact", "accurate estimates",
		"expected shape: EASY(SJF) and EASY(XF) beat conservative on average slowdown",
		"under conservative backfilling all priority policies produce the same schedule")
}

func runFigure3(l *Lab) ([]*Table, error) {
	return runOverall(l, "Figure3", "actual", "actual user estimates",
		"expected shape: EASY has lower overall slowdown than conservative for all priority policies")
}

// --- Figure 2 ---------------------------------------------------------------

func runFigure2(l *Lab) ([]*Table, error) {
	var tables []*Table
	for _, pol := range backfillPolicies {
		cons, err := l.Result("CTC", l.P.HighLoad, "exact", "conservative", pol)
		if err != nil {
			return nil, err
		}
		easy, err := l.Result("CTC", l.P.HighLoad, "exact", "easy", pol)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:      "Figure2",
			Title:   fmt.Sprintf("%% change in slowdown, EASY vs conservative under %s — CTC trace", pol),
			Headers: []string{"category", "% change (negative = EASY better)", "conservative", "EASY", "jobs"},
			Notes: []string{
				"expected shape: LN benefits from EASY; SW benefits from conservative",
			},
		}
		cc := core.Compare(cons, easy)
		for _, c := range job.Categories() {
			t.AddRow(c.String(), percent(cc.PerCat[c], cc.PerCatOK[c]),
				cons.Report.ByCategory[c].MeanSlowdown, easy.Report.ByCategory[c].MeanSlowdown, cons.Report.ByCategory[c].N)
		}
		t.AddRow("Overall", percent(cc.Overall, cc.OverallOK),
			cons.Report.Overall.MeanSlowdown, easy.Report.Overall.MeanSlowdown, cons.Report.Overall.N)
		tables = append(tables, t)
	}
	return tables, nil
}

// percent formats a core.Compare change, "n/a" when it has no baseline.
func percent(change float64, ok bool) string {
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", change)
}

// --- Tables 4 & 7: worst-case turnaround -----------------------------------

func runWorstCase(l *Lab, id, estModel, title string) ([]*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"scheduler", "FCFS", "SJF", "XF"},
		Notes: []string{
			"expected shape: EASY's worst case exceeds conservative's (no reservation bound)",
		},
	}
	for _, kind := range []string{"conservative", "easy"} {
		row := []any{kind}
		for _, pol := range backfillPolicies {
			r, err := l.Result("CTC", l.P.HighLoad, estModel, kind, pol)
			if err != nil {
				return nil, err
			}
			row = append(row, r.Report.Overall.MaxTurnaround)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

func runTable4(l *Lab) ([]*Table, error) {
	return runWorstCase(l, "Table4", "exact", "Worst-case turnaround (s), accurate estimates — CTC trace")
}

func runTable7(l *Lab) ([]*Table, error) {
	return runWorstCase(l, "Table7", "actual", "Worst-case turnaround (s), actual estimates — CTC trace")
}

// --- Tables 5 & 6: systematic overestimation --------------------------------

func runSystematic(l *Lab, id, kind, title string) ([]*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Headers: []string{"R", "FCFS", "SJF", "XF"},
		Notes: []string{
			"expected shape: average slowdown drops as R grows (larger holes to backfill into)",
			"the drop is larger under conservative than under EASY",
		},
	}
	for _, est := range []string{"R=1", "R=2", "R=4"} {
		row := []any{est}
		for _, pol := range backfillPolicies {
			r, err := l.Result("CTC", l.P.HighLoad, est, kind, pol)
			if err != nil {
				return nil, err
			}
			row = append(row, r.Report.Overall.MeanSlowdown)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

func runTable5(l *Lab) ([]*Table, error) {
	return runSystematic(l, "Table5", "conservative", "Systematic overestimation, conservative backfilling — CTC, avg slowdown")
}

func runTable6(l *Lab) ([]*Table, error) {
	return runSystematic(l, "Table6", "easy", "Systematic overestimation, EASY backfilling — CTC, avg slowdown")
}

// --- Figure 4: well vs poorly estimated jobs ----------------------------------

func runFigure4(l *Lab) ([]*Table, error) {
	// The comparison is between the *same job sets* under two estimate
	// regimes: the well/poor split comes from the actual-estimate trace,
	// and those job IDs are then tracked in the accurate-estimate run.
	actualJobs, err := l.Workload("CTC", l.P.HighLoad, "actual")
	if err != nil {
		return nil, err
	}
	wellIDs := map[int]bool{}
	poorIDs := map[int]bool{}
	for _, j := range actualJobs {
		if job.ClassifyEstimate(j) == job.WellEstimated {
			wellIDs[j.ID] = true
		} else {
			poorIDs[j.ID] = true
		}
	}

	var tables []*Table
	for _, kind := range []string{"conservative", "easy"} {
		t := &Table{
			ID:      "Figure4",
			Title:   fmt.Sprintf("Avg slowdown of well/poorly estimated jobs, %s backfilling — CTC trace (FCFS)", kind),
			Headers: []string{"job set", "accurate estimates", "actual estimates"},
			Notes: []string{
				"expected shape: well-estimated jobs improve under actual estimates, poorly estimated worsen",
				"both effects are stronger under conservative than under EASY",
			},
		}
		exact, err := l.Result("CTC", l.P.HighLoad, "exact", kind, "FCFS")
		if err != nil {
			return nil, err
		}
		actual, err := l.Result("CTC", l.P.HighLoad, "actual", kind, "FCFS")
		if err != nil {
			return nil, err
		}
		for _, set := range []struct {
			name string
			ids  map[int]bool
		}{{"well estimated", wellIDs}, {"poorly estimated", poorIDs}} {
			t.AddRow(fmt.Sprintf("%s (%d jobs)", set.name, len(set.ids)),
				metrics.SubsetSummary(exact.Outcomes, set.ids).MeanSlowdown,
				metrics.SubsetSummary(actual.Outcomes, set.ids).MeanSlowdown)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// --- §4.1 equivalence ---------------------------------------------------------

func runEquivalence(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "Equivalence",
		Title:   "Schedule fingerprints: conservative backfilling with accurate estimates is priority-invariant (§4.1)",
		Headers: []string{"scheduler", "fingerprint", "same as Conservative(FCFS)"},
	}
	base, err := l.Result("CTC", l.P.HighLoad, "exact", "conservative", "FCFS")
	if err != nil {
		return nil, err
	}
	add := func(kind, pol string) error {
		r, err := l.Result("CTC", l.P.HighLoad, "exact", kind, pol)
		if err != nil {
			return err
		}
		t.AddRow(r.Report.Scheduler, fmt.Sprintf("%016x", r.Fingerprint),
			fmt.Sprintf("%v", r.Fingerprint == base.Fingerprint))
		return nil
	}
	for _, pol := range []string{"FCFS", "SJF", "XF", "LJF", "WFP"} {
		if err := add("conservative", pol); err != nil {
			return nil, err
		}
	}
	for _, pol := range backfillPolicies {
		if err := add("easy", pol); err != nil {
			return nil, err
		}
	}
	t.Notes = []string{"all conservative rows must match; EASY rows generally differ"}
	return []*Table{t}, nil
}

// --- §6 selective backfilling ---------------------------------------------------

func runSelective(l *Lab) ([]*Table, error) {
	t := &Table{
		ID:      "Selective",
		Title:   "Selective backfilling vs conservative and EASY — CTC trace, actual estimates, FCFS",
		Headers: []string{"scheduler", "avg slowdown", "worst-case turnaround (s)", "avg turnaround (s)"},
		Notes: []string{
			"expected shape: selective keeps EASY-like average slowdown while pulling the worst case toward conservative's",
		},
	}
	kinds := []string{"conservative", "easy", "selective:2", "selective:5", "selective:10", "selective:adaptive"}
	for _, kind := range kinds {
		r, err := l.Result("CTC", l.P.HighLoad, "actual", kind, "FCFS")
		if err != nil {
			return nil, err
		}
		t.AddRow(r.Report.Scheduler, r.Report.Overall.MeanSlowdown,
			r.Report.Overall.MaxTurnaround, r.Report.Overall.MeanTurnaround)
	}
	return []*Table{t}, nil
}

// --- Extension: load sweep -------------------------------------------------------

func runLoadSweep(l *Lab) ([]*Table, error) {
	// An extension beyond the paper: how the schedulers separate as load
	// rises, with the CTC base trace scaled to four target loads.
	procs, err := l.Procs("CTC")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "LoadSweep",
		Title:   "Avg slowdown vs offered load — CTC trace, accurate estimates",
		Headers: []string{"offered load", "NoBackfill(FCFS)", "Conservative(FCFS)", "EASY(FCFS)", "EASY(SJF)"},
		Notes:   []string{"expected shape: separation grows with load; no-backfill saturates first"},
	}
	for _, target := range []float64{0.6, 0.75, 0.85, 0.95} {
		jobs, err := l.Workload("CTC", target, "exact")
		if err != nil {
			return nil, err
		}
		row := []any{fmt.Sprintf("%.2f", trace.OfferedLoad(jobs, procs))}
		for _, cfg := range [][2]string{{"none", "FCFS"}, {"conservative", "FCFS"}, {"easy", "FCFS"}, {"easy", "SJF"}} {
			r, err := l.Result("CTC", target, "exact", cfg[0], cfg[1])
			if err != nil {
				return nil, err
			}
			row = append(row, r.Report.Overall.MeanSlowdown)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// RunExperiments executes experiments through the runner engine, returning
// their tables flattened in the given order regardless of completion
// order. Experiments running in parallel share the Lab's memoized
// simulations (duplicate configurations are simulated once).
func RunExperiments(ctx context.Context, l *Lab, exps []Experiment, opt runner.Options) ([]*Table, error) {
	tasks := make([]runner.Task[[]*Table], len(exps))
	for i, e := range exps {
		tasks[i] = runner.Task[[]*Table]{
			Key: e.ID,
			Fn: func(ctx context.Context) ([]*Table, error) {
				ts, err := e.Run(l)
				if err != nil {
					return nil, fmt.Errorf("exp: %s: %w", e.ID, err)
				}
				return ts, nil
			},
		}
	}
	groups, err := runner.Run(ctx, tasks, opt)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, ts := range groups {
		tables = append(tables, ts...)
	}
	return tables, nil
}
