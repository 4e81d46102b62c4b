package exp

import (
	"math"
	"testing"
)

// TestGoldenHeadlineNumbers pins the exact values quoted in EXPERIMENTS.md
// at the default full-scale parameters (5000 jobs, seed 42). If a workload
// or scheduler change moves these, EXPERIMENTS.md must be regenerated — the
// failure is the reminder.
func TestGoldenHeadlineNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale golden run")
	}
	// One run of the experiments these numbers are quoted from.
	var exps []Experiment
	for _, id := range []string{"Figure1", "Table4", "Table5", "Figure3", "Table7", "Selective", "Preemption", "SlackSweep"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	r := runLab(t, DefaultParams(), exps, 0, nil)
	p := r.lab.P
	slow := func(trace, est, kind, pol string) float64 {
		return r.cell(p.key(trace, p.HighLoad, est, kind, pol)).Report.Overall.MeanSlowdown
	}
	maxTurn := func(trace, est, kind, pol string) int64 {
		return r.cell(p.key(trace, p.HighLoad, est, kind, pol)).Report.Overall.MaxTurnaround
	}

	goldenFloat := []struct {
		name string
		got  float64
		want float64
	}{
		{"Figure1 CTC conservative", slow("CTC", "exact", "conservative", "FCFS"), 21.29},
		{"Figure1 CTC EASY(SJF)", slow("CTC", "exact", "easy", "SJF"), 5.66},
		{"Figure1 CTC EASY(XF)", slow("CTC", "exact", "easy", "XF"), 7.13},
		{"Figure1 SDSC conservative", slow("SDSC", "exact", "conservative", "FCFS"), 55.79},
		{"Figure1 SDSC EASY(SJF)", slow("SDSC", "exact", "easy", "SJF"), 22.60},
		{"Table5 R=4 conservative FCFS", slow("CTC", "R=4", "conservative", "FCFS"), 16.53},
		{"Figure3 CTC EASY(SJF) actual", slow("CTC", "actual", "easy", "SJF"), 6.64},
		{"Selective adaptive actual", slow("CTC", "actual", "selective:adaptive", "FCFS"), 10.01},
		{"Preemption xf>=5 slowdown", slow("CTC", "actual", "preemptive:5", "FCFS"), 7.54},
		{"SlackSweep s=1 slowdown", slow("CTC", "actual", "slack:1", "FCFS"), 15.06},
	}
	for _, g := range goldenFloat {
		if math.Abs(g.got-g.want) > 0.01 {
			t.Errorf("%s = %.2f, EXPERIMENTS.md says %.2f — regenerate the doc if the change is intentional",
				g.name, g.got, g.want)
		}
	}

	goldenInt := []struct {
		name string
		got  int64
		want int64
	}{
		{"Table4 conservative worst case", maxTurn("CTC", "exact", "conservative", "FCFS"), 91727},
		{"Table4 EASY(SJF) worst case", maxTurn("CTC", "exact", "easy", "SJF"), 355250},
		{"Table7 EASY(SJF) worst case", maxTurn("CTC", "actual", "easy", "SJF"), 528630},
	}
	for _, g := range goldenInt {
		if g.got != g.want {
			t.Errorf("%s = %d, EXPERIMENTS.md says %d — regenerate the doc if the change is intentional",
				g.name, g.got, g.want)
		}
	}
}
