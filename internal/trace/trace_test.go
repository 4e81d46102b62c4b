package trace

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/stats"
)

func tj(id int, arr, rt int64, w int) *job.Job {
	return &job.Job{ID: id, Arrival: arr, Runtime: rt, Estimate: rt + 1, Width: w}
}

func TestScaleLoadHalvesGaps(t *testing.T) {
	jobs := []*job.Job{tj(1, 100, 10, 1), tj(2, 300, 10, 1), tj(3, 700, 10, 1)}
	out, err := ScaleLoad(jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 200, 400}
	for i, w := range want {
		if out[i].Arrival != w {
			t.Errorf("job %d arrival = %d, want %d", i+1, out[i].Arrival, w)
		}
	}
	// Originals untouched.
	if jobs[1].Arrival != 300 {
		t.Fatal("ScaleLoad mutated input")
	}
}

func TestScaleLoadIdentity(t *testing.T) {
	jobs := []*job.Job{tj(1, 5, 10, 1), tj(2, 17, 10, 1)}
	out, err := ScaleLoad(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if out[i].Arrival != jobs[i].Arrival {
			t.Fatal("factor 1 changed arrivals")
		}
	}
}

func TestScaleLoadRejectsBadFactor(t *testing.T) {
	for _, f := range []float64{0, -1} {
		if _, err := ScaleLoad(nil, f); err == nil {
			t.Errorf("factor %v should error", f)
		}
	}
}

func TestScaleLoadEmpty(t *testing.T) {
	out, err := ScaleLoad(nil, 0.5)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty scale: %v %v", out, err)
	}
}

func TestScaleLoadPreservesOrderProperty(t *testing.T) {
	r := stats.NewRNG(81)
	f := func(n uint8, factPct uint8) bool {
		jobs := make([]*job.Job, 0, int(n)%50)
		clock := int64(0)
		for i := 0; i < int(n)%50; i++ {
			clock += int64(r.Intn(1000))
			jobs = append(jobs, tj(i+1, clock, 10, 1))
		}
		factor := float64(factPct%200+1) / 100.0
		out, err := ScaleLoad(jobs, factor)
		if err != nil {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].Arrival < out[i-1].Arrival {
				return false
			}
		}
		if len(out) > 0 && len(jobs) > 0 && out[0].Arrival != jobs[0].Arrival {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleLoadChangesOfferedLoadInversely(t *testing.T) {
	r := stats.NewRNG(83)
	jobs := make([]*job.Job, 0, 500)
	clock := int64(0)
	for i := 0; i < 500; i++ {
		clock += int64(r.Intn(100) + 50)
		jobs = append(jobs, tj(i+1, clock, int64(r.Intn(1000)+100), r.Intn(8)+1))
	}
	base := OfferedLoad(jobs, 32)
	halved, err := ScaleLoad(jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	high := OfferedLoad(halved, 32)
	if math.Abs(high/base-2) > 0.05 {
		t.Fatalf("halving gaps should double offered load: %v -> %v", base, high)
	}
}

func TestFilterWidth(t *testing.T) {
	jobs := []*job.Job{tj(1, 0, 10, 4), tj(2, 1, 10, 64), tj(3, 2, 10, 8)}
	out := FilterWidth(jobs, 8)
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 3 {
		t.Fatalf("FilterWidth = %v", out)
	}
	out[0].Width = 99
	if jobs[0].Width != 4 {
		t.Fatal("FilterWidth aliases input")
	}
}

func TestWindow(t *testing.T) {
	jobs := []*job.Job{tj(1, 0, 10, 1), tj(2, 100, 10, 1), tj(3, 200, 10, 1)}
	out := Window(jobs, 50, 200)
	if len(out) != 1 || out[0].ID != 2 {
		t.Fatalf("Window = %v", out)
	}
}

func TestSummarize(t *testing.T) {
	th := job.PaperThresholds()
	jobs := []*job.Job{
		{ID: 1, Arrival: 0, Runtime: 100, Estimate: 100, Width: 2},      // SN, well
		{ID: 2, Arrival: 100, Runtime: 7200, Estimate: 30000, Width: 2}, // LN, poor
		{ID: 3, Arrival: 400, Runtime: 100, Estimate: 150, Width: 16},   // SW, well
	}
	s := Summarize(jobs, th)
	if s.Jobs != 3 || s.Span != 400 {
		t.Fatalf("Jobs=%d Span=%d", s.Jobs, s.Span)
	}
	wantWork := float64(100*2 + 7200*2 + 100*16)
	if s.TotalWork != wantWork {
		t.Fatalf("TotalWork = %v, want %v", s.TotalWork, wantWork)
	}
	if s.CategoryCounts[job.ShortNarrow] != 1 || s.CategoryCounts[job.LongNarrow] != 1 || s.CategoryCounts[job.ShortWide] != 1 {
		t.Fatalf("counts = %v", s.CategoryCounts)
	}
	if s.WellEstimated != 2 || s.PoorlyEstimated != 1 {
		t.Fatalf("estimate classes = %d/%d", s.WellEstimated, s.PoorlyEstimated)
	}
	if math.Abs(s.MeanRuntime-(100+7200+100)/3.0) > 1e-9 {
		t.Fatalf("MeanRuntime = %v", s.MeanRuntime)
	}
	if math.Abs(s.MeanWidth-(2+2+16)/3.0) > 1e-9 {
		t.Fatalf("MeanWidth = %v", s.MeanWidth)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, job.PaperThresholds())
	if s.Jobs != 0 || s.TotalWork != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestOfferedLoad(t *testing.T) {
	// 2 jobs, each 100s × 8 procs = 1600 work over span 100 on 16 procs:
	// 1600 / (16×100) = 1.
	jobs := []*job.Job{tj(1, 0, 100, 8), tj(2, 100, 100, 8)}
	if got := OfferedLoad(jobs, 16); math.Abs(got-1) > 1e-9 {
		t.Fatalf("OfferedLoad = %v, want 1", got)
	}
	if OfferedLoad(jobs, 0) != 0 || OfferedLoad(nil, 16) != 0 {
		t.Fatal("degenerate offered load should be 0")
	}
	same := []*job.Job{tj(1, 50, 10, 1), tj(2, 50, 10, 1)}
	if OfferedLoad(same, 16) != 0 {
		t.Fatal("zero-span trace should report 0")
	}
}
