package exp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/sweep"
	"repro/internal/trace"
)

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
		{Jobs: 100, NormalLoad: math.NaN(), HighLoad: 0.9},
		{Jobs: 100, NormalLoad: 0.6, HighLoad: math.NaN()},
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
	a, err := l.Workload("CTC", l.P.HighLoad, "exact")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Workload("CTC", l.P.HighLoad, "exact")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("workload not cached")
	}
	normal, err := l.Workload("CTC", l.P.NormalLoad, "exact")
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
	actual, err := l.Workload("CTC", l.P.HighLoad, "actual")
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
	r1, err := l.Result("SDSC", l.P.HighLoad, "exact", "easy", "FCFS")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Result("SDSC", l.P.HighLoad, "exact", "easy", "FCFS")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("result not cached")
	}

	// The same cell through sweep.RunWith, over the Lab's base workload
	// generated afresh, is the same record field by field.
	w, err := l.base("SDSC").Generate()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sweep.RunWith(context.Background(), sweep.Design{
		Workloads:  []sweep.Workload{w},
		Schedulers: []string{"easy"},
		Policies:   []string{"FCFS"},
		Estimates:  []string{"exact"},
		Loads:      []float64{l.P.HighLoad},
		Seed:       l.P.Seed,
	}, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := sweep.Key{Base: l.base("SDSC"), Load: l.P.HighLoad, Estimates: "exact", Scheduler: "easy", Policy: "FCFS"}
	if got := k.Record(r1); !reflect.DeepEqual(got, recs[0]) {
		t.Fatalf("Lab cell %+v\nsweep cell %+v", got, recs[0])
	}
}

func TestLabResultErrors(t *testing.T) {
	l, err := NewLab(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Result("CTC", l.P.HighLoad, "exact", "bogus", "FCFS"); err == nil {
		t.Fatal("bad scheduler should error")
	}
	if _, err := l.Result("CTC", l.P.HighLoad, "bogus", "easy", "FCFS"); err == nil {
		t.Fatal("bad estimate model should error")
	}
	if _, err := l.Result("bogus", l.P.HighLoad, "exact", "easy", "FCFS"); err == nil {
		t.Fatal("bad trace should error")
	}
}
