package exp

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/job"
)

// shape is the full registry at the size used to validate the paper's
// qualitative claims, run once and shared by the shape tests.
var shape struct {
	once sync.Once
	run  *labRun
}

func shapeRun(t *testing.T) *labRun {
	t.Helper()
	shape.once.Do(func() {
		p := DefaultParams()
		p.Jobs = 3000
		shape.run = runLab(t, p, All(), 0, nil)
	})
	if shape.run == nil {
		t.Fatal("the shared shape run failed")
	}
	return shape.run
}

func TestRegistry(t *testing.T) {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	want := []string{
		"Table1", "Table2", "Table3", "Figure1", "Figure2", "Table4",
		"Table5", "Table6", "Figure3", "Figure4", "Table7",
		"Equivalence", "Selective", "LoadSweep",
		"DepthSweep", "SlackSweep", "CompressionAblation", "Fairness", "Confidence",
		"Burstiness", "BackfillOrder", "Significance", "Preemption",
		"PolicyMatrix", "Partitioning", "LoadConsistency", "MultiSite", "Distribution",
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("IDs()[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
	if _, err := ByID("Figure1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("Figure9"); err == nil {
		t.Fatal("unknown ID should error")
	}
}

func TestTable1Definition(t *testing.T) {
	ts := shapeRun(t).of("Table1")
	if len(ts) != 1 || len(ts[0].Rows) != 2 {
		t.Fatalf("Table1 = %+v", ts)
	}
	if ts[0].Rows[0][1] != "SN" || ts[0].Rows[1][2] != "LW" {
		t.Fatalf("Table1 cells wrong: %v", ts[0].Rows)
	}
}

func TestTables2And3MatchPaperMixes(t *testing.T) {
	r := shapeRun(t)
	for _, tc := range []struct {
		id     string
		target job.Mix
	}{{"Table2", ctcMix()}, {"Table3", sdscMix()}} {
		ts := r.of(tc.id)
		rows := ts[0].Rows
		if len(rows) != 4 {
			t.Fatalf("category rows = %d", len(rows))
		}
		for i, c := range job.Categories() {
			got, err := strconv.ParseFloat(rows[i][1], 64)
			if err != nil {
				t.Fatal(err)
			}
			want := 100 * tc.target[c]
			if diff := got - want; diff > 2.5 || diff < -2.5 {
				t.Errorf("%s %s: generated %.2f%%, paper %.2f%%", ts[0].ID, c, got, want)
			}
		}
	}
}

// TestFigure1Shape: EASY with SJF or XF priority clearly outperforms
// conservative backfilling on average slowdown (the paper's headline
// Figure 1 claim), on both traces.
func TestFigure1Shape(t *testing.T) {
	r := shapeRun(t)
	p := r.lab.P
	for _, traceName := range []string{"CTC", "SDSC"} {
		cons := r.cell(p.key(traceName, p.HighLoad, "exact", "conservative", "FCFS"))
		for _, pol := range []string{"SJF", "XF"} {
			easy := r.cell(p.key(traceName, p.HighLoad, "exact", "easy", pol))
			if easy.Report.Overall.MeanSlowdown >= cons.Report.Overall.MeanSlowdown {
				t.Errorf("%s: EASY(%s) slowdown %.2f not below conservative %.2f",
					traceName, pol, easy.Report.Overall.MeanSlowdown, cons.Report.Overall.MeanSlowdown)
			}
		}
	}
}

// TestFigure2Shape: the category-wise trends of Figure 2 — LN benefits from
// EASY under every policy; SW benefits from conservative under FCFS; under
// SJF and XF the short categories (SN, SW) and LN all benefit from EASY.
func TestFigure2Shape(t *testing.T) {
	r := shapeRun(t)
	change := func(pol string, c job.Category) float64 {
		cons := r.cell(ctcKey(r.lab.P, "exact", "conservative", pol))
		easy := r.cell(ctcKey(r.lab.P, "exact", "easy", pol))
		b := cons.Report.ByCategory[c].MeanSlowdown
		v := easy.Report.ByCategory[c].MeanSlowdown
		return 100 * (v - b) / b
	}
	for _, pol := range []string{"FCFS", "SJF", "XF"} {
		if ch := change(pol, job.LongNarrow); ch >= 0 {
			t.Errorf("LN under %s: %+.1f%%, want EASY benefit (negative)", pol, ch)
		}
	}
	if ch := change("FCFS", job.ShortWide); ch <= 0 {
		t.Errorf("SW under FCFS: %+.1f%%, want conservative benefit (positive)", ch)
	}
	for _, pol := range []string{"SJF", "XF"} {
		for _, c := range []job.Category{job.ShortNarrow, job.ShortWide} {
			if ch := change(pol, c); ch >= 0 {
				t.Errorf("%s under %s: %+.1f%%, want EASY benefit (negative)", c, pol, ch)
			}
		}
	}
}

// TestTable4Shape: EASY's worst-case turnaround meets or exceeds
// conservative's for every policy, and strictly exceeds it under SJF (the
// unbounded-delay effect).
func TestTable4Shape(t *testing.T) {
	r := shapeRun(t)
	for _, pol := range []string{"FCFS", "SJF", "XF"} {
		cons := r.cell(ctcKey(r.lab.P, "exact", "conservative", pol))
		easy := r.cell(ctcKey(r.lab.P, "exact", "easy", pol))
		cw, ew := cons.Report.Overall.MaxTurnaround, easy.Report.Overall.MaxTurnaround
		if ew < cw {
			t.Errorf("%s: EASY worst case %d below conservative %d", pol, ew, cw)
		}
		if pol == "SJF" && ew <= cw {
			t.Errorf("SJF: EASY worst case %d should strictly exceed conservative %d", ew, cw)
		}
	}
}

// TestTable5Table6Shape: systematic overestimation lowers conservative's
// average slowdown substantially (R=4 < R=1 for every policy) while EASY is
// much less affected.
func TestTable5Table6Shape(t *testing.T) {
	r := shapeRun(t)
	slow := func(kind, est, pol string) float64 {
		return r.cell(ctcKey(r.lab.P, est, kind, pol)).Report.Overall.MeanSlowdown
	}
	for _, pol := range []string{"FCFS", "SJF", "XF"} {
		r1, r4 := slow("conservative", "R=1", pol), slow("conservative", "R=4", pol)
		if r4 >= r1 {
			t.Errorf("conservative %s: R=4 slowdown %.2f not below R=1 %.2f", pol, r4, r1)
		}
	}
	// Relative change under FCFS: conservative's improvement exceeds
	// EASY's.
	consDrop := (slow("conservative", "R=1", "FCFS") - slow("conservative", "R=4", "FCFS")) / slow("conservative", "R=1", "FCFS")
	easyDrop := (slow("easy", "R=1", "FCFS") - slow("easy", "R=4", "FCFS")) / slow("easy", "R=1", "FCFS")
	if consDrop <= easyDrop {
		t.Errorf("conservative relative drop %.3f not above EASY's %.3f", consDrop, easyDrop)
	}
}

// TestFigure3Shape: with actual estimates, EASY under SJF and XF still
// beats conservative (the policies the paper's conclusion emphasises). The
// FCFS comparison is trace-sensitive (Mu'alem & Feitelson report the
// opposite sign for CTC) and is not asserted.
func TestFigure3Shape(t *testing.T) {
	r := shapeRun(t)
	p := r.lab.P
	for _, tc := range []struct{ trace, pol string }{
		{"CTC", "SJF"}, {"CTC", "XF"}, {"SDSC", "XF"},
	} {
		cons := r.cell(p.key(tc.trace, p.HighLoad, "actual", "conservative", tc.pol))
		easy := r.cell(p.key(tc.trace, p.HighLoad, "actual", "easy", tc.pol))
		if easy.Report.Overall.MeanSlowdown >= cons.Report.Overall.MeanSlowdown {
			t.Errorf("%s %s: EASY %.2f not below conservative %.2f with actual estimates",
				tc.trace, tc.pol, easy.Report.Overall.MeanSlowdown, cons.Report.Overall.MeanSlowdown)
		}
	}
}

// TestFigure4Shape: under conservative backfilling, the well-estimated
// jobs' slowdown improves when estimates go from accurate to actual; under
// EASY the poorly estimated jobs' slowdown worsens. (The paper's remaining
// two quadrants are regime-sensitive; EXPERIMENTS.md discusses them.)
func TestFigure4Shape(t *testing.T) {
	tables := shapeRun(t).of("Figure4")
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	consWellAcc, consWellAct := parse(tables[0].Rows[0][1]), parse(tables[0].Rows[0][2])
	if consWellAct >= consWellAcc {
		t.Errorf("conservative well-estimated: actual %.2f not below accurate %.2f", consWellAct, consWellAcc)
	}
	easyPoorAcc, easyPoorAct := parse(tables[1].Rows[1][1]), parse(tables[1].Rows[1][2])
	if easyPoorAct <= easyPoorAcc {
		t.Errorf("EASY poorly-estimated: actual %.2f not above accurate %.2f", easyPoorAct, easyPoorAcc)
	}
}

// TestEquivalenceShape: every conservative fingerprint matches under exact
// estimates; EASY's differ from conservative's.
func TestEquivalenceShape(t *testing.T) {
	ts := shapeRun(t).of("Equivalence")
	for _, row := range ts[0].Rows {
		isCons := strings.HasPrefix(row[0], "Conservative")
		same := row[2] == "true"
		if isCons && !same {
			t.Errorf("%s: fingerprint differs from Conservative(FCFS)", row[0])
		}
		if !isCons && same {
			t.Errorf("%s: fingerprint unexpectedly equals conservative's", row[0])
		}
	}
}

// TestSelectiveShape: selective backfilling's average slowdown beats plain
// EASY(FCFS) (fewer blocking reservations than conservative, protection for
// starving jobs), and its worst-case turnaround stays below EASY(SJF)'s
// unbounded tail.
func TestSelectiveShape(t *testing.T) {
	r := shapeRun(t)
	easyFCFS := r.cell(ctcKey(r.lab.P, "actual", "easy", "FCFS"))
	easySJF := r.cell(ctcKey(r.lab.P, "actual", "easy", "SJF"))
	sel := r.cell(ctcKey(r.lab.P, "actual", "selective:2", "FCFS"))
	if sel.Report.Overall.MeanSlowdown >= easyFCFS.Report.Overall.MeanSlowdown {
		t.Errorf("selective slowdown %.2f not below EASY(FCFS) %.2f",
			sel.Report.Overall.MeanSlowdown, easyFCFS.Report.Overall.MeanSlowdown)
	}
	if sel.Report.Overall.MaxTurnaround >= easySJF.Report.Overall.MaxTurnaround {
		t.Errorf("selective worst case %d not below EASY(SJF) %d",
			sel.Report.Overall.MaxTurnaround, easySJF.Report.Overall.MaxTurnaround)
	}
}

// TestLoadSweepShape: the no-backfill baseline deteriorates monotonically
// and much faster than the backfilling schedulers.
func TestLoadSweepShape(t *testing.T) {
	ts := shapeRun(t).of("LoadSweep")
	rows := ts[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	prev := -1.0
	for _, row := range rows {
		nb := parse(row[1])
		if nb <= prev {
			t.Errorf("no-backfill slowdown not increasing with load: %v after %v", nb, prev)
		}
		prev = nb
		if easy := parse(row[3]); easy >= nb {
			t.Errorf("EASY slowdown %.2f not below no-backfill %.2f", easy, nb)
		}
	}
}

func TestRunAllProducesEveryTable(t *testing.T) {
	tables := shapeRun(t).tables
	seen := map[string]bool{}
	for _, tb := range tables {
		seen[tb.ID] = true
		if len(tb.Headers) == 0 || len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Headers) {
				t.Errorf("%s: row width %d != headers %d", tb.ID, len(row), len(tb.Headers))
			}
		}
	}
	for _, e := range All() {
		if !seen[e.ID] {
			t.Errorf("RunExperiments missing %s", e.ID)
		}
	}
}
