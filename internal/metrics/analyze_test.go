package metrics_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// referenceReport is the report's seven summaries built the plain way: the
// outcomes split into groups, each group through Summarize.
func referenceReport(outs []metrics.Outcome) metrics.Report {
	var perCat [job.NumCategories][]metrics.Outcome
	var perQual [job.NumEstimateQualities][]metrics.Outcome
	for _, o := range outs {
		perCat[o.Category] = append(perCat[o.Category], o)
		perQual[o.EstimateQuality()] = append(perQual[o.EstimateQuality()], o)
	}
	rep := metrics.Report{Overall: metrics.Summarize(outs)}
	for c := range perCat {
		rep.ByCategory[c] = metrics.Summarize(perCat[c])
	}
	for q := range perQual {
		rep.ByQuality[q] = metrics.Summarize(perQual[q])
	}
	return rep
}

// sameBits reports the first field of two summaries that differs, comparing
// every float by its bits, or "" when they are identical.
func sameBits(a, b metrics.Summary) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		differ := false
		if fa.Kind() == reflect.Float64 {
			differ = math.Float64bits(fa.Float()) != math.Float64bits(fb.Float())
		} else {
			differ = fa.Interface() != fb.Interface()
		}
		if differ {
			return fmt.Sprintf("%s: %v vs %v", va.Type().Field(i).Name, fa.Interface(), fb.Interface())
		}
	}
	return ""
}

// checkGroups fails t where a report's seven summaries differ from the
// reference's in any bit.
func checkGroups(t *testing.T, label string, got, want metrics.Report) {
	t.Helper()
	if d := sameBits(got.Overall, want.Overall); d != "" {
		t.Errorf("%s overall: %s", label, d)
	}
	for c := range got.ByCategory {
		if d := sameBits(got.ByCategory[c], want.ByCategory[c]); d != "" {
			t.Errorf("%s %v: %s", label, job.Category(c), d)
		}
	}
	for q := range got.ByQuality {
		if d := sameBits(got.ByQuality[q], want.ByQuality[q]); d != "" {
			t.Errorf("%s %v: %s", label, job.EstimateQuality(q), d)
		}
	}
}

// randomPlacements draws n placements from small ranges, so values tie
// often, and from a shape that decides which groups exist: "narrow" puts
// every job in the short-narrow category (three categories empty), "mixed"
// spreads them, and "exact" makes every estimate exact (one quality empty).
// Some jobs end later than start + runtime, as a preempted job does.
func randomPlacements(rng *rand.Rand, n int, shape string) []sim.Placement {
	ps := make([]sim.Placement, n)
	for i := range ps {
		j := &job.Job{ID: i + 1, Arrival: int64(rng.Intn(50))}
		switch shape {
		case "narrow":
			j.Width, j.Runtime = 1+rng.Intn(8), int64(1+rng.Intn(3))*600
		default:
			j.Width, j.Runtime = 1+rng.Intn(64), int64(1+rng.Intn(4))*1800
		}
		j.Estimate = j.Runtime
		if shape != "exact" && rng.Intn(2) == 0 {
			j.Estimate = j.Runtime * int64(2+rng.Intn(3))
		}
		start := j.Arrival + int64(rng.Intn(4))*100
		end := start + j.Runtime
		if rng.Intn(8) == 0 {
			end += int64(rng.Intn(3)) * 100
		}
		ps[i] = sim.Placement{Job: j, Start: start, End: end}
	}
	return ps
}

// TestAnalyzeMatchesPerGroupSummarize holds the one-pass report to its
// definition: each of its seven summaries is what Summarize returns on that
// group's outcomes, bit for bit.
func TestAnalyzeMatchesPerGroupSummarize(t *testing.T) {
	th := job.PaperThresholds()
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 300; trial++ {
			shape := []string{"narrow", "mixed", "exact"}[trial%3]
			n := rng.Intn(12) // 0 and 1 give empty and one-job groups
			if trial%10 == 0 {
				n = 200 + rng.Intn(300)
			}
			ps := randomPlacements(rng, n, shape)
			got := metrics.Analyze("x", ps, th, 64)
			checkGroups(t, fmt.Sprintf("trial %d (%s, %d jobs)", trial, shape, n), got, referenceReport(metrics.FromPlacements(ps, th)))
		}
	})
	t.Run("study", func(t *testing.T) {
		root := stats.NewRNG(1)
		for _, model := range []string{"CTC", "SDSC"} {
			estSeed := root.Int63()
			m, err := workload.ByName(model, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := m.Generate(500, 42)
			if err != nil {
				t.Fatal(err)
			}
			jobs = workload.ApplyEstimates(jobs, workload.Actual{}, estSeed)
			for _, kind := range []string{"none", "easy", "conservative", "depth:4", "slack:1", "selective:2", "preemptive:10"} {
				for _, pol := range []string{"FCFS", "SJF", "XF"} {
					res, err := core.Run(core.Config{Procs: m.Procs, Scheduler: kind, Policy: pol, Audit: true}, jobs)
					if err != nil {
						t.Fatal(err)
					}
					label := model + "/" + kind + "/" + pol
					checkGroups(t, label, res.Report, referenceReport(res.Outcomes))
					if again := metrics.Analyze(res.Report.Scheduler, res.Placements, th, m.Procs); !reflect.DeepEqual(again, res.Report) {
						t.Errorf("%s: Analyze over the placements differs from the result's report", label)
					}
				}
			}
		}
	})
}
