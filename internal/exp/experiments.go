package exp

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	// ID is the artifact name: the paper's "Table1" … "Table7" and
	// "Figure1" … "Figure4", then the 17 extensions from "Equivalence" to
	// "Distribution" (All lists them all).
	ID string
	// Description summarises what the artifact shows.
	Description string
	// Cells lists the simulation cells the experiment reads at p; nil for
	// one that reads none. A cell several experiments declare runs once.
	Cells func(p Params) []sweep.Key
	// Render builds the tables from the declared cells' results.
	Render func(l *Lab, res Results) ([]*Table, error)
}

// The axis values the experiments range over, each list written once.
var (
	backfillKinds = []string{"conservative", "easy"}
	// backfillPolicies are the priority policies the paper crosses with
	// the two backfilling schemes.
	backfillPolicies = []string{"FCFS", "SJF", "XF"}
	allPolicies      = []string{"FCFS", "SJF", "XF", "LJF", "WFP"}
	exact            = []string{"exact"}
	actual           = []string{"actual"}
	fcfs             = []string{"FCFS"}
)

// All returns the experiment registry: the paper's artifacts in paper
// order, followed by the extension and ablation studies.
func All() []Experiment {
	return append(paperExperiments(), extensionExperiments()...)
}

// paperExperiments lists the artifacts the paper itself contains.
func paperExperiments() []Experiment {
	return []Experiment{
		{ID: "Table1", Description: "Job categorization criteria (runtime 1h × width 8 procs)", Render: renderTable1},
		{ID: "Table2", Description: "CTC trace category distribution", Render: categoryTable("Table2", "CTC", ctcMix())},
		{ID: "Table3", Description: "SDSC trace category distribution", Render: categoryTable("Table3", "SDSC", sdscMix())},
		{ID: "Figure1", Description: "Overall slowdown & turnaround: conservative vs EASY × priority, accurate estimates",
			Cells: bothTraces("exact"), Render: overall("Figure1", "accurate estimates",
				"expected shape: EASY(SJF) and EASY(XF) beat conservative on average slowdown",
				"under conservative backfilling all priority policies produce the same schedule")},
		{ID: "Figure2", Description: "Category-wise % slowdown change, EASY vs conservative (CTC, accurate)",
			Cells: ctcHigh(exact, backfillKinds, backfillPolicies), Render: renderFigure2},
		{ID: "Table4", Description: "Worst-case turnaround, accurate estimates (CTC)",
			Cells: ctcHigh(exact, backfillKinds, backfillPolicies), Render: worstCase("Table4", "Worst-case turnaround (s), accurate estimates — CTC trace")},
		{ID: "Table5", Description: "Systematic overestimation R∈{1,2,4}: conservative (CTC)",
			Cells: ctcHigh(overestimates, []string{"conservative"}, backfillPolicies), Render: systematic("Table5", "Systematic overestimation, conservative backfilling — CTC, avg slowdown")},
		{ID: "Table6", Description: "Systematic overestimation R∈{1,2,4}: EASY (CTC)",
			Cells: ctcHigh(overestimates, []string{"easy"}, backfillPolicies), Render: systematic("Table6", "Systematic overestimation, EASY backfilling — CTC, avg slowdown")},
		{ID: "Figure3", Description: "Conservative vs EASY with actual user estimates",
			Cells: bothTraces("actual"), Render: overall("Figure3", "actual user estimates",
				"expected shape: EASY has lower overall slowdown than conservative for all priority policies")},
		{ID: "Figure4", Description: "Well vs poorly estimated jobs: accurate vs actual estimates (CTC)",
			Cells: ctcHigh([]string{"exact", "actual"}, backfillKinds, fcfs), Render: renderFigure4},
		{ID: "Table7", Description: "Worst-case turnaround, actual estimates (CTC)",
			Cells: ctcHigh(actual, backfillKinds, backfillPolicies), Render: worstCase("Table7", "Worst-case turnaround (s), actual estimates — CTC trace")},
		{ID: "Equivalence", Description: "§4.1 priority equivalence under conservative backfilling",
			Cells: func(p Params) []sweep.Key {
				return append(p.cross("CTC", p.HighLoad, exact, []string{"conservative"}, allPolicies),
					p.cross("CTC", p.HighLoad, exact, []string{"easy"}, backfillPolicies)...)
			}, Render: renderEquivalence},
		{ID: "Selective", Description: "§6 future work: selective backfilling vs conservative and EASY", Render: renderSelective,
			Cells: ctcHigh(actual, []string{"conservative", "easy", "selective:2", "selective:5", "selective:10", "selective:adaptive"}, fcfs)},
		{ID: "LoadSweep", Description: "Extension: slowdown and utilization across offered loads", Render: renderLoadSweep,
			Cells: func(p Params) []sweep.Key {
				var ks []sweep.Key
				for _, load := range []float64{0.6, 0.75, 0.85, 0.95} {
					for _, cfg := range loadSweepConfigs {
						ks = append(ks, p.key("CTC", load, "exact", cfg[0], cfg[1]))
					}
				}
				return ks
			}},
	}
}

// overestimates are the systematic overestimation factors of Tables 5
// and 6.
var overestimates = []string{"R=1", "R=2", "R=4"}

// ctcHigh declares the CTC trace's cells at high load for every estimate
// model, scheduler and policy, nested in that order.
func ctcHigh(ests, kinds, pols []string) func(Params) []sweep.Key {
	return func(p Params) []sweep.Key { return p.cross("CTC", p.HighLoad, ests, kinds, pols) }
}

// ctcCells declares CTC cells at high load, one for each "estimates
// scheduler policy" triple.
func ctcCells(triples ...string) func(Params) []sweep.Key {
	return func(p Params) []sweep.Key {
		ks := make([]sweep.Key, len(triples))
		for i, c := range triples {
			f := strings.Fields(c)
			ks[i] = p.key("CTC", p.HighLoad, f[0], f[1], f[2])
		}
		return ks
	}
}

// bothTraces declares Figures 1 and 3: each backfilling scheme under each
// of the paper's policies at high load, on CTC and then on SDSC.
func bothTraces(est string) func(Params) []sweep.Key {
	return func(p Params) []sweep.Key {
		return append(p.cross("CTC", p.HighLoad, []string{est}, backfillKinds, backfillPolicies),
			p.cross("SDSC", p.HighLoad, []string{est}, backfillKinds, backfillPolicies)...)
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

// --- Table 1 --------------------------------------------------------------

func renderTable1(*Lab, Results) ([]*Table, error) {
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

func categoryTable(id, traceName string, target job.Mix) func(*Lab, Results) ([]*Table, error) {
	return func(l *Lab, _ Results) ([]*Table, error) {
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
}

// The paper mixes, re-declared here to avoid exp depending on workload's
// internals in table output. Kept in sync by a test.
func ctcMix() job.Mix  { return job.Mix{0.4506, 0.1184, 0.3026, 0.1284} }
func sdscMix() job.Mix { return job.Mix{0.4724, 0.2144, 0.2994, 0.0138} }

// --- Figures 1 & 3: conservative vs EASY overall ----------------------------

// overall renders one table a trace of bothTraces' cells.
func overall(id, estTitle string, notes ...string) func(*Lab, Results) ([]*Table, error) {
	return func(l *Lab, res Results) ([]*Table, error) {
		var tables []*Table
		for _, ks := range rows(res.Keys, len(backfillKinds)*len(backfillPolicies)) {
			t := &Table{
				ID:      id,
				Title:   fmt.Sprintf("Conservative vs EASY, %s, high load — %s trace", estTitle, ks[0].Base.Model),
				Headers: []string{"scheduler", "avg slowdown", "avg turnaround (s)"},
				Notes:   notes,
			}
			for _, k := range ks {
				r := res.Get(k)
				t.AddRow(r.Report.Scheduler, r.Report.Overall.MeanSlowdown, r.Report.Overall.MeanTurnaround)
			}
			tables = append(tables, t)
		}
		return tables, nil
	}
}

// --- Figure 2 ---------------------------------------------------------------

func renderFigure2(l *Lab, res Results) ([]*Table, error) {
	var tables []*Table
	// The cells list conservative under every policy, then EASY.
	n := len(backfillPolicies)
	for i, k := range res.Keys[:n] {
		cons, easy := res.Get(k), res.Get(res.Keys[n+i])
		t := &Table{
			ID:      "Figure2",
			Title:   fmt.Sprintf("%% change in slowdown, EASY vs conservative under %s — CTC trace", k.Policy),
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

// --- Tables 4 & 7 and 5 & 6: one row a scheme, one column a policy ---------

// policyGrid renders t from cells declared policy innermost: a row for
// each run of len(pols) cells, labelled by label and filled with value.
func policyGrid(t Table, pols []string, label func(sweep.Key) string, value func(*core.Result) any) func(*Lab, Results) ([]*Table, error) {
	return func(_ *Lab, res Results) ([]*Table, error) {
		t := t
		t.Headers = append(slices.Clip(t.Headers), pols...)
		for _, ks := range rows(res.Keys, len(pols)) {
			row := []any{label(ks[0])}
			for _, k := range ks {
				row = append(row, value(res.Get(k)))
			}
			t.AddRow(row...)
		}
		return []*Table{&t}, nil
	}
}

// perCell renders t with a row for each declared cell, row giving its
// cells.
func perCell(t Table, row func(sweep.Key, *core.Result) []any) func(*Lab, Results) ([]*Table, error) {
	return func(_ *Lab, res Results) ([]*Table, error) {
		t := t
		for _, k := range res.Keys {
			t.AddRow(row(k, res.Get(k))...)
		}
		return []*Table{&t}, nil
	}
}

// The row labels and cell values the grids share.
func scheduler(k sweep.Key) string       { return k.Scheduler }
func meanSlowdown(r *core.Result) any    { return r.Report.Overall.MeanSlowdown }
func worstTurnaround(r *core.Result) any { return r.Report.Overall.MaxTurnaround }

func worstCase(id, title string) func(*Lab, Results) ([]*Table, error) {
	return policyGrid(Table{ID: id, Title: title, Headers: []string{"scheduler"},
		Notes: []string{"expected shape: EASY's worst case exceeds conservative's (no reservation bound)"}},
		backfillPolicies, scheduler, worstTurnaround)
}

func systematic(id, title string) func(*Lab, Results) ([]*Table, error) {
	return policyGrid(Table{ID: id, Title: title, Headers: []string{"R"}, Notes: []string{
		"expected shape: average slowdown drops as R grows (larger holes to backfill into)",
		"the drop is larger under conservative than under EASY",
	}}, backfillPolicies, func(k sweep.Key) string { return k.Estimates }, meanSlowdown)
}

// --- Figure 4: well vs poorly estimated jobs ----------------------------------

func renderFigure4(l *Lab, res Results) ([]*Table, error) {
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
	// The cells list each scheme under accurate estimates, then actual.
	n := len(backfillKinds)
	for i, k := range res.Keys[:n] {
		t := &Table{
			ID:      "Figure4",
			Title:   fmt.Sprintf("Avg slowdown of well/poorly estimated jobs, %s backfilling — CTC trace (FCFS)", k.Scheduler),
			Headers: []string{"job set", "accurate estimates", "actual estimates"},
			Notes: []string{
				"expected shape: well-estimated jobs improve under actual estimates, poorly estimated worsen",
				"both effects are stronger under conservative than under EASY",
			},
		}
		exact, actual := res.Get(k), res.Get(res.Keys[n+i])
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

func renderEquivalence(l *Lab, res Results) ([]*Table, error) {
	t := &Table{
		ID:      "Equivalence",
		Title:   "Schedule fingerprints: conservative backfilling with accurate estimates is priority-invariant (§4.1)",
		Headers: []string{"scheduler", "fingerprint", "same as Conservative(FCFS)"},
		Notes:   []string{"all conservative rows must match; EASY rows generally differ"},
	}
	// The first cell, Conservative(FCFS), is the reference.
	base := res.Get(res.Keys[0])
	for _, k := range res.Keys {
		r := res.Get(k)
		t.AddRow(r.Report.Scheduler, fmt.Sprintf("%016x", r.Fingerprint),
			fmt.Sprintf("%v", r.Fingerprint == base.Fingerprint))
	}
	return []*Table{t}, nil
}

// --- §6 selective backfilling ---------------------------------------------------

var renderSelective = perCell(Table{
	ID:      "Selective",
	Title:   "Selective backfilling vs conservative and EASY — CTC trace, actual estimates, FCFS",
	Headers: []string{"scheduler", "avg slowdown", "worst-case turnaround (s)", "avg turnaround (s)"},
	Notes: []string{
		"expected shape: selective keeps EASY-like average slowdown while pulling the worst case toward conservative's",
	},
}, func(_ sweep.Key, r *core.Result) []any {
	return []any{r.Report.Scheduler, r.Report.Overall.MeanSlowdown,
		r.Report.Overall.MaxTurnaround, r.Report.Overall.MeanTurnaround}
})

// --- Extension: load sweep -------------------------------------------------------

// loadSweepConfigs are LoadSweep's columns: the CTC base trace is scaled
// to four target loads, an extension beyond the paper showing how the
// schedulers separate as load rises.
var loadSweepConfigs = [][2]string{{"none", "FCFS"}, {"conservative", "FCFS"}, {"easy", "FCFS"}, {"easy", "SJF"}}

func renderLoadSweep(l *Lab, res Results) ([]*Table, error) {
	t := &Table{
		ID:      "LoadSweep",
		Title:   "Avg slowdown vs offered load — CTC trace, accurate estimates",
		Headers: []string{"offered load", "NoBackfill(FCFS)", "Conservative(FCFS)", "EASY(FCFS)", "EASY(SJF)"},
		Notes:   []string{"expected shape: separation grows with load; no-backfill saturates first"},
	}
	for _, ks := range rows(res.Keys, len(loadSweepConfigs)) {
		jobs, err := l.Workload("CTC", ks[0].Load, "exact")
		if err != nil {
			return nil, err
		}
		row := []any{fmt.Sprintf("%.2f", trace.OfferedLoad(jobs, res.Get(ks[0]).Config.Procs))}
		for _, k := range ks {
			row = append(row, res.Get(k).Report.Overall.MeanSlowdown)
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}
