package sched

import (
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestDepthKConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewDepthK(0, FCFS{}, 1) },
		func() { NewDepthK(4, nil, 1) },
		func() { NewDepthK(4, FCFS{}, 0) },
		func() { NewSlackBased(0, FCFS{}, 1) },
		func() { NewSlackBased(4, nil, 1) },
		func() { NewSlackBased(4, FCFS{}, -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDepthKNames(t *testing.T) {
	if got := NewDepthK(8, SJF{}, 4).Name(); got != "DepthK(SJF,k=4)" {
		t.Fatalf("Name = %q", got)
	}
	if got := NewSlackBased(8, XF{}, 1.5).Name(); got != "Slack(XF,s=1.5)" {
		t.Fatalf("Name = %q", got)
	}
	if got := NewConservativeNoCompression(8, FCFS{}).Name(); got != "ConservativeNC(FCFS)" {
		t.Fatalf("Name = %q", got)
	}
}

// TestDepthK1MatchesEASY is the implementation cross-check: lookahead-1
// backfilling over the availability profile must produce exactly the EASY
// shadow/extra schedule — two independent formulations of the same policy.
func TestDepthK1MatchesEASY(t *testing.T) {
	const procs = 32
	for trial := 0; trial < 12; trial++ {
		jobs := genWorkload(stats.NewRNG(int64(700+trial)), 150, procs, 1)
		for _, pol := range []Policy{FCFS{}, SJF{}, XF{}} {
			easy := runOn(t, procs, jobs, NewEASY(procs, pol))
			dk := runOn(t, procs, jobs, NewDepthK(procs, pol, 1))
			for id, s := range easy {
				if dk[id] != s {
					t.Fatalf("trial %d %s: job %d starts differ: EASY %d vs DepthK(1) %d",
						trial, pol.Name(), id, s, dk[id])
				}
			}
		}
	}
}

// TestDepthKGolden reuses the EASY golden scenarios at k=1.
func TestDepthKGolden(t *testing.T) {
	starts := runOn(t, 10, backfillScenario(), NewDepthK(10, FCFS{}, 1))
	wantStarts(t, starts, map[int]int64{1: 0, 2: 100, 3: 2})

	// Shadow protection scenario: w5 would delay the head, w4 fits extra.
	jobs := []*job.Job{
		exactJob(1, 0, 100, 5),
		exactJob(2, 1, 100, 6),
		exactJob(3, 2, 500, 5),
	}
	starts = runOn(t, 10, jobs, NewDepthK(10, FCFS{}, 1))
	wantStarts(t, starts, map[int]int64{1: 0, 2: 100, 3: 200})
}

// TestDepthKDepthMatters: deeper lookahead produces genuinely different
// schedules on a busy workload (k=1 vs k=16 must not coincide), and every
// depth remains valid under audit.
func TestDepthKDepthMatters(t *testing.T) {
	const procs = 32
	diverged := false
	for trial := 0; trial < 6; trial++ {
		jobs := genWorkload(stats.NewRNG(int64(900+trial)), 200, procs, 1)
		k1 := runOn(t, procs, jobs, NewDepthK(procs, FCFS{}, 1))
		k16 := runOn(t, procs, jobs, NewDepthK(procs, FCFS{}, 16))
		for id := range k1 {
			if k1[id] != k16[id] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("k=1 and k=16 produced identical schedules on every trial — depth appears inert")
	}
}

// TestDepthKProtectedJobNeverStarved: on a fixed busy workload, the mean
// wait of wide jobs should not degrade when moving from k=1 to deeper
// protection (reservations shield exactly the jobs that cannot backfill).
func TestDepthKDeepHelpsWideJobs(t *testing.T) {
	const procs = 32
	var k1Wide, k8Wide float64
	var n int
	jobs := genWorkload(stats.NewRNG(910), 300, procs, 1)
	k1 := runOn(t, procs, jobs, NewDepthK(procs, FCFS{}, 1))
	k8 := runOn(t, procs, jobs, NewDepthK(procs, FCFS{}, 8))
	for _, j := range jobs {
		if j.Width > procs/2 {
			k1Wide += float64(k1[j.ID] - j.Arrival)
			k8Wide += float64(k8[j.ID] - j.Arrival)
			n++
		}
	}
	if n == 0 {
		t.Skip("no wide jobs in workload")
	}
	if k8Wide > k1Wide*1.25 {
		t.Fatalf("deep protection made wide jobs wait 25%%+ longer: k1=%.0f k8=%.0f (n=%d)", k1Wide/float64(n), k8Wide/float64(n), n)
	}
}

func TestDepthKValidAndDeterministic(t *testing.T) {
	const procs = 32
	jobs := genWorkload(stats.NewRNG(801), 200, procs, 1)
	for _, k := range []int{1, 2, 4, 16} {
		a := runOn(t, procs, jobs, NewDepthK(procs, FCFS{}, k))
		b := runOn(t, procs, jobs, NewDepthK(procs, FCFS{}, k))
		for id := range a {
			if a[id] != b[id] {
				t.Fatalf("k=%d: nondeterministic", k)
			}
		}
	}
}

// --- Slack-based ------------------------------------------------------------

func TestSlackGoldenBackfill(t *testing.T) {
	// The canonical backfill scenario: slack-based also runs J3 early.
	starts := runOn(t, 10, backfillScenario(), NewSlackBased(10, FCFS{}, 1))
	wantStarts(t, starts, map[int]int64{1: 0, 2: 100, 3: 2})
}

func TestSlackZeroNeverDelaysGuarantees(t *testing.T) {
	// With slack 0, the guarantee equals the first planned start; jobs must
	// start at or before it.
	const procs = 32
	jobs := genWorkload(stats.NewRNG(802), 150, procs, 1)
	s := NewSlackBased(procs, FCFS{}, 0)
	promise := map[int]int64{}
	obs := &sim.Observer{
		OnArrive: func(now int64, j *job.Job) {
			if g, ok := s.Guarantee(j.ID); ok {
				promise[j.ID] = g
			}
		},
		OnStart: func(now int64, j *job.Job) {
			if g, ok := promise[j.ID]; ok && now > g {
				t.Fatalf("job %d started at %d past guarantee %d (slack 0)", j.ID, now, g)
			}
		},
	}
	if _, err := sim.Run(sim.Machine{Procs: procs}, jobs, s, obs); err != nil {
		t.Fatal(err)
	}
	if v := s.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestSlackGuaranteeHonoredAcrossFactors(t *testing.T) {
	const procs = 32
	for _, sf := range []float64{0, 0.5, 2} {
		jobs := genWorkload(stats.NewRNG(803), 120, procs, 1)
		s := NewSlackBased(procs, XF{}, sf)
		promise := map[int]int64{}
		obs := &sim.Observer{
			OnArrive: func(now int64, j *job.Job) {
				if g, ok := s.Guarantee(j.ID); ok {
					promise[j.ID] = g
				}
			},
			OnStart: func(now int64, j *job.Job) {
				if g, ok := promise[j.ID]; ok && now > g {
					t.Fatalf("slack %v: job %d started at %d past guarantee %d", sf, j.ID, now, g)
				}
			},
		}
		aud := newCapacityCheck(procs)
		audObs := aud.Observer()
		combined := &sim.Observer{
			OnArrive: obs.OnArrive,
			OnStart: func(now int64, j *job.Job) {
				obs.OnStart(now, j)
				audObs.OnStart(now, j)
			},
			OnComplete: audObs.OnComplete,
		}
		if _, err := sim.Run(sim.Machine{Procs: procs}, jobs, s, combined); err != nil {
			t.Fatal(err)
		}
		if err := aud.Err(); err != nil {
			t.Fatal(err)
		}
		if v := s.Violations(); len(v) != 0 {
			t.Fatalf("slack %v: violations: %v", sf, v)
		}
	}
}

func TestSlackZeroEqualsConservative(t *testing.T) {
	// With slack factor 0 no displacement is permitted and compression is
	// conservative's, so the schedules must be bit-identical.
	const procs = 32
	for trial := 0; trial < 8; trial++ {
		jobs := genWorkload(stats.NewRNG(int64(820+trial)), 150, procs, 1)
		for _, pol := range []Policy{FCFS{}, SJF{}} {
			cons := runOn(t, procs, jobs, NewConservative(procs, pol))
			slack := runOn(t, procs, jobs, NewSlackBased(procs, pol, 0))
			for id, st := range cons {
				if slack[id] != st {
					t.Fatalf("trial %d %s: job %d starts differ: conservative %d vs slack0 %d",
						trial, pol.Name(), id, st, slack[id])
				}
			}
		}
	}
}

func TestSlackDisplacementHappens(t *testing.T) {
	// Machine 10. Blocker w10 [0,100). K (w10, est 500) reserved [100,600)
	// with slack 1 → guarantee 100+500=600. Then j (w10, est 100) arrives:
	// displacing K lets j run [100,200) and K at [200,700), within K's
	// guarantee. Conservative (slack 0) would keep arrival order.
	jobs := []*job.Job{
		exactJob(1, 0, 100, 10),
		exactJob(2, 1, 500, 10), // K
		exactJob(3, 2, 100, 10), // j, short
	}
	withSlack := runOn(t, 10, jobs, NewSlackBased(10, FCFS{}, 1))
	wantStarts(t, withSlack, map[int]int64{1: 0, 3: 100, 2: 200})
	noSlack := runOn(t, 10, jobs, NewSlackBased(10, FCFS{}, 0))
	wantStarts(t, noSlack, map[int]int64{1: 0, 2: 100, 3: 600})
}

func TestSlackBeatsConservativeOnPacking(t *testing.T) {
	// With generous slack, short arrivals squeeze ahead, so mean wait on a
	// busy fixed-seed workload should not be worse than conservative's.
	const procs = 32
	jobs := genWorkload(stats.NewRNG(804), 200, procs, 1)
	meanWait := func(s sim.Scheduler) float64 {
		starts := runOn(t, procs, jobs, s)
		var sum float64
		for _, j := range jobs {
			sum += float64(starts[j.ID] - j.Arrival)
		}
		return sum / float64(len(jobs))
	}
	cons := meanWait(NewConservative(procs, FCFS{}))
	slack := meanWait(NewSlackBased(procs, FCFS{}, 2))
	if slack > cons*1.05 {
		t.Fatalf("slack-based mean wait %.1f much worse than conservative %.1f", slack, cons)
	}
}

// --- Conservative no-compression ablation -------------------------------------

func TestConservativeNoCompressionNeedsTimers(t *testing.T) {
	// Blocker estimates 1000 but finishes at 100. Without compression the
	// queued job must still start at its reservation (1000) — which only a
	// timer event can trigger — rather than deadlocking or jumping early.
	jobs := []*job.Job{
		{ID: 1, Arrival: 0, Runtime: 100, Estimate: 1000, Width: 10},
		exactJob(2, 1, 50, 10),
	}
	starts := runOn(t, 10, jobs, NewConservativeNoCompression(10, FCFS{}))
	wantStarts(t, starts, map[int]int64{1: 0, 2: 1000})

	// The compressing scheduler pulls job 2 to the actual completion.
	starts = runOn(t, 10, jobs, NewConservative(10, FCFS{}))
	wantStarts(t, starts, map[int]int64{1: 0, 2: 100})
}

func TestConservativeNoCompressionValid(t *testing.T) {
	const procs = 32
	jobs := genWorkload(stats.NewRNG(805), 150, procs, 1)
	s := NewConservativeNoCompression(procs, FCFS{})
	runOn(t, procs, jobs, s)
	if v := s.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestConservativeCompressionHelpsOnAverage(t *testing.T) {
	// Per-job starts are NOT pointwise comparable across the two variants
	// (compression changes the profile later arrivals reserve against —
	// a Graham-style anomaly can move an individual job later), but on a
	// busy workload with overestimated runtimes compression must win on
	// mean wait: it is the mechanism that exploits early-completion holes.
	const procs = 32
	jobs := genWorkload(stats.NewRNG(806), 200, procs, 1)
	for i := range jobs {
		jobs[i].Estimate = jobs[i].Runtime * 3
	}
	meanWait := func(s sim.Scheduler) float64 {
		starts := runOn(t, procs, jobs, s)
		var sum float64
		for _, j := range jobs {
			sum += float64(starts[j.ID] - j.Arrival)
		}
		return sum / float64(len(jobs))
	}
	with := meanWait(NewConservative(procs, FCFS{}))
	without := meanWait(NewConservativeNoCompression(procs, FCFS{}))
	if with >= without {
		t.Fatalf("compression mean wait %.1f not below no-compression %.1f", with, without)
	}
}
