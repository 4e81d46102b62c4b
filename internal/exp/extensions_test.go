package exp

import (
	"strconv"
	"strings"
	"testing"
)

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimPrefix(strings.TrimSpace(s), "±")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestDepthSweepShape(t *testing.T) {
	ts := shapeRun(t).of("DepthSweep")
	rows := ts[0].Rows
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// LN (long narrow) slowdown should not improve as protection deepens:
	// reservations only add roofs that block LN backfilling. Allow noise.
	lnK1 := parseCell(t, rows[0][3])
	lnK16 := parseCell(t, rows[4][3])
	if lnK16 < lnK1*0.9 {
		t.Errorf("LN slowdown improved with depth (k=1: %.2f, k=16: %.2f) — roofs should hurt LN", lnK1, lnK16)
	}
}

func TestSlackSweepShape(t *testing.T) {
	r := shapeRun(t)
	ts := r.of("SlackSweep")
	rows := ts[0].Rows
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Slack 0 must equal plain conservative on mean slowdown.
	cons := r.cell(ctcKey(r.lab.P, "actual", "conservative", "FCFS"))
	s0 := parseCell(t, rows[0][1])
	want := cons.Report.Overall.MeanSlowdown
	if diff := s0 - want; diff > 0.01 || diff < -0.01 {
		t.Errorf("slack 0 slowdown %.3f != conservative %.3f", s0, want)
	}
	// Generous slack should improve the average on this workload.
	s2 := parseCell(t, rows[3][1])
	if s2 > s0 {
		t.Errorf("slack 2 slowdown %.2f worse than slack 0 %.2f", s2, s0)
	}
}

func TestCompressionAblationShape(t *testing.T) {
	ts := shapeRun(t).of("CompressionAblation")
	rows := ts[0].Rows
	// R=1: identical (no holes ever).
	if rows[0][1] != rows[0][2] || rows[0][3] != rows[0][4] {
		t.Errorf("R=1: with/without differ (%v) — no holes should open", rows[0])
	}
	// R>=2: compression must clearly win on mean turnaround (stale
	// reservations strand jobs). Mean slowdown is deliberately NOT
	// asserted: short arrivals backfilling into the sparse phantom ladder
	// can make the uncompressed slowdown look better.
	for _, i := range []int{1, 2, 3} {
		with := parseCell(t, rows[i][3])
		without := parseCell(t, rows[i][4])
		if with >= without {
			t.Errorf("%s: compressed turnaround %.0f not below uncompressed %.0f", rows[i][0], with, without)
		}
	}
}

func TestFairnessShape(t *testing.T) {
	ts := shapeRun(t).of("Fairness")
	if len(ts[0].Rows) != 6 {
		t.Fatalf("rows = %d", len(ts[0].Rows))
	}
	for _, row := range ts[0].Rows {
		g := parseCell(t, row[2])
		if g < 0 || g > 1 {
			t.Errorf("%s: Gini %v out of [0,1]", row[0], g)
		}
	}
}

func TestBurstinessShape(t *testing.T) {
	ts := shapeRun(t).of("Burstiness")
	rows := ts[0].Rows
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Loads must be comparable across arrival processes (that is the whole
	// point of the comparison).
	loads := map[string]float64{}
	for _, r := range rows {
		loads[r[0]] = parseCell(t, r[1])
	}
	for name, v := range loads {
		if v < 0.5 || v > 1.0 {
			t.Errorf("%s offered load %.2f out of comparable band", name, v)
		}
	}
	// Session arrivals must produce a deeper peak queue than renewal ones
	// under the same scheduler (row order: renewal cons, renewal easy,
	// diurnal cons, diurnal easy, sessions cons, sessions easy).
	renewalPeak := parseCell(t, rows[0][5])
	sessionPeak := parseCell(t, rows[4][5])
	if sessionPeak <= renewalPeak {
		t.Errorf("session peak queue %v not above renewal %v", sessionPeak, renewalPeak)
	}
}

func TestSignificanceShape(t *testing.T) {
	ts := shapeRun(t).of("Significance")
	rows := ts[0].Rows
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The headline EASY(SJF) vs conservative comparison under exact
	// estimates must be significant with a negative mean difference.
	if rows[0][4] != "true" {
		t.Errorf("EASY(SJF) vs conservative not significant: %v", rows[0])
	}
	if !strings.HasPrefix(rows[0][3], "-") {
		t.Errorf("EASY(SJF) mean difference should be negative: %v", rows[0][3])
	}
}

func TestPreemptionShape(t *testing.T) {
	ts := shapeRun(t).of("Preemption")
	rows := ts[0].Rows
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Preemption must cut the worst-case turnaround relative to plain EASY
	// (row 0 is EASY, rows 3..5 the preemptive thresholds).
	easyWorst := parseCell(t, rows[0][2])
	for _, i := range []int{3, 4, 5} {
		if w := parseCell(t, rows[i][2]); w > easyWorst {
			t.Errorf("%s worst case %.0f exceeds EASY's %.0f", rows[i][0], w, easyWorst)
		}
	}
}

func TestDistributionShape(t *testing.T) {
	ts := shapeRun(t).of("Distribution")
	rows := ts[0].Rows
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Quantiles must be monotone and every slowdown >= 1.
		prev := 0.0
		for i := 1; i <= 6; i++ {
			q := parseCell(t, row[i])
			if q < 1 {
				t.Errorf("%s: quantile %d = %v < 1", row[0], i, q)
			}
			if q < prev {
				t.Errorf("%s: quantiles not monotone at %d (%v < %v)", row[0], i, q, prev)
			}
			prev = q
		}
		// Medians stay small even where means are large: the tail story.
		if p50 := parseCell(t, row[3]); p50 > 5 {
			t.Errorf("%s: median slowdown %v implausibly high", row[0], p50)
		}
	}
}

func TestMultiSiteShape(t *testing.T) {
	ts := shapeRun(t).of("MultiSite")
	rows := ts[0].Rows
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Row order per scheduler: single, least-loaded, replicate-all.
	for _, base := range []int{0, 3} {
		single := parseCell(t, rows[base][2])
		repl := parseCell(t, rows[base+2][2])
		if repl >= single {
			t.Errorf("%s: replicate-all slowdown %.2f not below single %.2f",
				rows[base][1], repl, single)
		}
	}
}

func TestLoadConsistencyShape(t *testing.T) {
	ts := shapeRun(t).of("LoadConsistency")
	rows := ts[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	sign := func(s string) int {
		v := parseCell(t, strings.TrimSuffix(strings.TrimPrefix(s, "+"), "%"))
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		}
		return 0
	}
	// The paper's §3 claim: same trend directions at both loads for the
	// categories with clear trends (SW conservative-favoured, LN
	// EASY-favoured).
	for _, row := range rows {
		cat := row[0]
		if cat != "SW" && cat != "LN" {
			continue
		}
		if sign(row[1]) != sign(row[2]) {
			t.Errorf("%s: trend sign flips between loads (%s vs %s)", cat, row[1], row[2])
		}
	}
}

func TestPartitioningShape(t *testing.T) {
	ts := shapeRun(t).of("Partitioning")
	rows := ts[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The shared backfilling pool must beat the static split on mean wait
	// (rows: shared FCFS, shared SJF, split EASY, split NoBackfill).
	sharedWait := parseCell(t, rows[0][2])
	splitWait := parseCell(t, rows[2][2])
	if sharedWait >= splitWait {
		t.Errorf("shared pool wait %.0f not below static split %.0f", sharedWait, splitWait)
	}
}

func TestConfidenceShape(t *testing.T) {
	ts := shapeRun(t).of("Confidence")
	rows := ts[0].Rows
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The headline ordering must hold in multi-seed means: EASY(SJF)
	// beats conservative under exact estimates.
	consExact := parseCell(t, rows[0][2])
	easySJF := parseCell(t, rows[1][2])
	if easySJF >= consExact {
		t.Errorf("multi-seed: EASY(SJF) %.2f not below conservative %.2f", easySJF, consExact)
	}
	for _, row := range rows {
		if ci := parseCell(t, row[3]); ci < 0 {
			t.Errorf("negative CI in %v", row)
		}
	}
}
