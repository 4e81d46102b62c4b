package grid

import (
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func easySites(n, procs int) []Site {
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = Site{
			Name:  string(rune('A' + i)),
			Procs: procs,
			Make:  func(p int) sim.Scheduler { return sched.NewEASY(p, sched.FCFS{}) },
		}
	}
	return sites
}

func gj(id int, arr, rt int64, w int) *job.Job {
	return &job.Job{ID: id, Arrival: arr, Runtime: rt, Estimate: rt, Width: w}
}

// gridWorkload builds a random valid workload for procs-wide sites.
func gridWorkload(r *stats.RNG, n, procs int) []*job.Job {
	jobs := make([]*job.Job, 0, n)
	clock := int64(0)
	for i := 1; i <= n; i++ {
		clock += int64(r.Intn(120) + 1)
		rt := int64(r.Intn(3000) + 1)
		w := r.Intn(procs) + 1
		if r.Bool(0.7) {
			w = r.Intn(procs/4) + 1
		}
		jobs = append(jobs, gj(i, clock, rt, w))
	}
	return jobs
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, nil, Single); err == nil {
		t.Error("no sites should error")
	}
	bad := []Site{{Name: "x", Procs: 0, Make: func(p int) sim.Scheduler { return sched.NewEASY(1, sched.FCFS{}) }}}
	if _, err := Run(bad, nil, Single); err == nil {
		t.Error("zero-proc site should error")
	}
	noMake := []Site{{Name: "x", Procs: 4}}
	if _, err := Run(noMake, nil, Single); err == nil {
		t.Error("missing scheduler should error")
	}
	sites := easySites(2, 8)
	tooWide := []*job.Job{gj(1, 0, 10, 99)}
	if _, err := Run(sites, tooWide, Single); err == nil {
		t.Error("job fitting no site should error")
	}
	invalid := []*job.Job{{ID: 1, Runtime: 10, Estimate: 5, Width: 1}}
	if _, err := Run(sites, invalid, Single); err == nil {
		t.Error("invalid job should error")
	}
}

func TestReplicateAllRequiresCanceler(t *testing.T) {
	sites := []Site{{
		Name:  "nc",
		Procs: 8,
		// SelectiveAdaptive implements Cancel; build something that does
		// not: wrap via an anonymous non-canceling scheduler is overkill —
		// the Partitioned meta-scheduler does not implement Canceler.
		Make: func(p int) sim.Scheduler {
			sizes := []int{p / 2, p - p/2}
			return sched.NewPartitioned(sizes, sched.RuntimeRouter(60, sizes), func(pp, _ int) sim.Scheduler {
				return sched.NewEASY(pp, sched.FCFS{})
			})
		},
	}}
	_, err := Run(sites, nil, ReplicateAll)
	if err == nil || !strings.Contains(err.Error(), "cannot cancel") {
		t.Fatalf("want canceler error, got %v", err)
	}
}

func TestSingleRoundRobin(t *testing.T) {
	// Two idle sites, two simultaneous jobs: round-robin sends one each;
	// both start immediately.
	sites := easySites(2, 8)
	jobs := []*job.Job{gj(1, 0, 100, 8), gj(2, 0, 100, 8)}
	ps, err := Run(sites, jobs, Single)
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].Start != 0 || ps[1].Start != 0 {
		t.Fatalf("both jobs should start at 0: %+v", ps)
	}
	if ps[0].Site == ps[1].Site {
		t.Fatal("round-robin should spread the jobs")
	}
}

func TestReplicationFindsTheIdleSite(t *testing.T) {
	// Site A busy until 1000; site B idle from t=10. A single submission
	// that lands on A waits; replication runs on B immediately.
	sites := easySites(2, 8)
	jobs := []*job.Job{
		gj(1, 0, 1000, 8), // occupies whichever site round-robin picks first (A)
		gj(2, 1, 1000, 8), // occupies B
		gj(3, 2, 50, 8),   // the probe: replicated, must wait for the earliest site
		gj(4, 3, 50, 8),
	}
	single, err := Run(sites, jobs, Single)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := Run(sites, jobs, ReplicateAll)
	if err != nil {
		t.Fatal(err)
	}
	wait := func(ps []Placement) int64 {
		var sum int64
		for _, p := range ps {
			sum += p.Start - p.Job.Arrival
		}
		return sum
	}
	if wait(repl) > wait(single) {
		t.Fatalf("replication total wait %d worse than single %d", wait(repl), wait(single))
	}
}

func TestEveryJobRunsExactlyOnce(t *testing.T) {
	sites := easySites(3, 16)
	jobs := gridWorkload(stats.NewRNG(1800), 200, 16)
	for _, routing := range []Routing{Single, ReplicateAll, LeastLoaded} {
		ps, err := Run(sites, jobs, routing)
		if err != nil {
			t.Fatalf("%v: %v", routing, err)
		}
		if len(ps) != len(jobs) {
			t.Fatalf("%v: %d placements for %d jobs", routing, len(ps), len(jobs))
		}
		seen := map[int]bool{}
		for _, p := range ps {
			if seen[p.Job.ID] {
				t.Fatalf("%v: job %d ran twice", routing, p.Job.ID)
			}
			seen[p.Job.ID] = true
			if p.Site < 0 || p.Site >= len(sites) {
				t.Fatalf("%v: bad site %d", routing, p.Site)
			}
			if p.Start < p.Job.Arrival {
				t.Fatalf("%v: %v started before arrival", routing, p.Job)
			}
		}
	}
}

func TestGridDeterministic(t *testing.T) {
	sites := easySites(3, 16)
	jobs := gridWorkload(stats.NewRNG(1801), 150, 16)
	a, err := Run(sites, jobs, ReplicateAll)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sites, jobs, ReplicateAll)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("grid run nondeterministic")
		}
	}
}

func TestReplicationBeatsSingleOnMeanWait(t *testing.T) {
	// The companion paper's headline: redundant requests reduce turnaround
	// by exploiting whichever site has a hole.
	sites := easySites(4, 16)
	jobs := gridWorkload(stats.NewRNG(1802), 400, 16)
	meanWait := func(routing Routing) float64 {
		ps, err := Run(sites, jobs, routing)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range ps {
			sum += float64(p.Start - p.Job.Arrival)
		}
		return sum / float64(len(ps))
	}
	single := meanWait(Single)
	repl := meanWait(ReplicateAll)
	if repl >= single {
		t.Fatalf("replicate-all mean wait %.1f not below single %.1f", repl, single)
	}
}

func TestGridWithConservativeSites(t *testing.T) {
	sites := []Site{
		{Name: "A", Procs: 16, Make: func(p int) sim.Scheduler { return sched.NewConservative(p, sched.FCFS{}) }},
		{Name: "B", Procs: 16, Make: func(p int) sim.Scheduler { return sched.NewConservative(p, sched.FCFS{}) }},
	}
	jobs := gridWorkload(stats.NewRNG(1803), 150, 16)
	ps, err := Run(sites, jobs, ReplicateAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(jobs) {
		t.Fatalf("placements = %d", len(ps))
	}
}

func TestHeterogeneousSiteWidths(t *testing.T) {
	// Wide jobs only fit the big site; narrow ones go anywhere.
	sites := []Site{
		{Name: "small", Procs: 8, Make: func(p int) sim.Scheduler { return sched.NewEASY(p, sched.FCFS{}) }},
		{Name: "big", Procs: 32, Make: func(p int) sim.Scheduler { return sched.NewEASY(p, sched.FCFS{}) }},
	}
	jobs := []*job.Job{
		gj(1, 0, 100, 32), // only fits big
		gj(2, 1, 100, 4),
		gj(3, 2, 100, 16), // only fits big
	}
	ps, err := Run(sites, jobs, ReplicateAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.Job.Width > 8 && p.Site != 1 {
			t.Fatalf("%v placed at small site", p.Job)
		}
	}
}

// TestOneSiteMatchesEngine holds the grid loop to the engine it copies: a
// one-site Single grid must place every job where sim.Run places it, for
// every scheduler kind, on a hand-made reservation that only a wake-up
// reaches and on an SDSC stream with actual (padded) estimates. A
// preemptive site is refused: the grid never suspends a running job.
func TestOneSiteMatchesEngine(t *testing.T) {
	m, err := workload.NewSDSC(0.9)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.Generate(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	streams := []struct {
		name  string
		procs int
		jobs  []*job.Job
	}{
		// B queues behind A's reservation to 100, which no event marks once
		// A completes at 10.
		{"wake", 4, []*job.Job{
			{ID: 1, Arrival: 0, Runtime: 10, Estimate: 100, Width: 4},
			{ID: 2, Arrival: 1, Runtime: 10, Estimate: 10, Width: 4},
		}},
		{"sdsc", m.Procs, workload.ApplyEstimates(raw, workload.Actual{}, 6)},
	}
	for _, kind := range sched.Kinds() {
		mk, err := sched.MakerFor(kind, sched.FCFS{})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range streams {
			t.Run(kind+"/"+st.name, func(t *testing.T) {
				sites := []Site{{Name: "only", Procs: st.procs, Make: mk}}
				got, err := Run(sites, st.jobs, Single)
				if _, preempts := mk(st.procs).(sim.Preemptor); preempts {
					if err == nil || !strings.Contains(err.Error(), "preempts") {
						t.Fatalf("preemptive site: err %v, want a refusal", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.Run(sim.Machine{Procs: st.procs}, st.jobs, mk(st.procs), nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d placements, engine %d", len(got), len(want))
				}
				for i, p := range got {
					if w := want[i]; p.Job.ID != w.Job.ID || p.Start != w.Start || p.End != w.End {
						t.Fatalf("placement %d: job %d [%d, %d), engine job %d [%d, %d)",
							i, p.Job.ID, p.Start, p.End, w.Job.ID, w.Start, w.End)
					}
				}
			})
		}
	}
}

func TestRoutingString(t *testing.T) {
	if Single.String() != "single" || ReplicateAll.String() != "replicate-all" || LeastLoaded.String() != "least-loaded" {
		t.Fatal("routing names wrong")
	}
	if Routing(9).String() == "" {
		t.Fatal("unknown routing should stringify")
	}
}

func TestToSimPlacements(t *testing.T) {
	ps := []Placement{{Job: gj(1, 0, 10, 1), Site: 0, Start: 5, End: 15}}
	sp := ToSimPlacements(ps)
	if len(sp) != 1 || sp[0].Start != 5 || sp[0].End != 15 || sp[0].Job.ID != 1 {
		t.Fatalf("converted = %+v", sp)
	}
}
