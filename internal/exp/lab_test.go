package exp

import (
	"sort"
	"testing"

	"repro/internal/trace"
)

// keys returns the keys of a group's completed or in-flight calls, sorted.
func (g *group[V]) keys() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.calls))
	for k := range g.calls {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func testParams() Params {
	p := DefaultParams()
	p.Jobs = 400
	return p
}

func TestNewLabValidation(t *testing.T) {
	bad := []Params{
		{Jobs: 0, NormalLoad: 0.5, HighLoad: 0.9},
		{Jobs: 100, NormalLoad: 0, HighLoad: 0.9},
		{Jobs: 100, NormalLoad: 0.9, HighLoad: 0.5},
	}
	for i, p := range bad {
		if _, err := NewLab(p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := NewLab(DefaultParams()); err != nil {
		t.Fatal(err)
	}
}

func TestLabProcs(t *testing.T) {
	l, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	ctc, err := l.Procs("CTC")
	if err != nil || ctc != 430 {
		t.Fatalf("CTC procs = %d, %v", ctc, err)
	}
	sdsc, err := l.Procs("SDSC")
	if err != nil || sdsc != 128 {
		t.Fatalf("SDSC procs = %d, %v", sdsc, err)
	}
	if _, err := l.Procs("nope"); err == nil {
		t.Fatal("unknown trace should error")
	}
}

func TestLabWorkloadCachingAndLoads(t *testing.T) {
	l, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	a, err := l.Workload("CTC", HighLoad, "exact")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Workload("CTC", HighLoad, "exact")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("workload not cached")
	}
	normal, err := l.Workload("CTC", NormalLoad, "exact")
	if err != nil {
		t.Fatal(err)
	}
	// High-load trace must be denser than the normal one.
	hi := trace.OfferedLoad(a, 430)
	lo := trace.OfferedLoad(normal, 430)
	if hi <= lo {
		t.Fatalf("high load %.3f not above normal %.3f", hi, lo)
	}
	// Same jobs, different estimates, same runtimes.
	actual, err := l.Workload("CTC", HighLoad, "actual")
	if err != nil {
		t.Fatal(err)
	}
	if len(actual) != len(a) {
		t.Fatal("estimate variant changed job count")
	}
	for i := range a {
		if actual[i].Runtime != a[i].Runtime || actual[i].Arrival != a[i].Arrival {
			t.Fatal("estimate variant changed runtimes/arrivals")
		}
	}
}

func TestLabResultCaching(t *testing.T) {
	l, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := l.Result("SDSC", HighLoad, "exact", "easy", "FCFS")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Result("SDSC", HighLoad, "exact", "easy", "FCFS")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("result not cached")
	}
	if len(l.results.keys()) != 1 {
		t.Fatalf("cache keys = %v", l.results.keys())
	}
}

func TestLabResultErrors(t *testing.T) {
	l, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Result("CTC", HighLoad, "exact", "bogus", "FCFS"); err == nil {
		t.Fatal("bad scheduler should error")
	}
	if _, err := l.Result("CTC", HighLoad, "bogus", "easy", "FCFS"); err == nil {
		t.Fatal("bad estimate model should error")
	}
	if _, err := l.Result("bogus", HighLoad, "exact", "easy", "FCFS"); err == nil {
		t.Fatal("bad trace should error")
	}
}
