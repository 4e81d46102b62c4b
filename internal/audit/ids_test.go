package audit

import (
	"reflect"
	"testing"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestSparseIDsScheduleLikeDense: job IDs are keys, never inputs. Every
// registry kind under FCFS, SJF and XF schedules a trace whose IDs are
// remapped in order — three apart, increasing gaps of up to 2⁴⁰, or offset
// by 10¹² — exactly as it schedules the trace numbered 1…n, both through
// sim.Run, which presizes every table, and through a session fed one job
// at a time, which presizes none. After mapping the IDs back the placements
// equal the dense run's, the Reports are equal, and the auditor stays
// clean. Spread IDs put the session's, the engines' and the auditor's
// tables in the hashed layout — from the start when presized, by
// conversion when grown — and offset ones keep them direct far from zero.
func TestSparseIDsScheduleLikeDense(t *testing.T) {
	const procs, n = 16, 150
	rng := stats.NewRNG(41)
	dense := make([]*job.Job, n)
	var at int64
	for i := range dense {
		at += int64(rng.Intn(25))
		rt := int64(rng.Intn(300) + 1)
		dense[i] = &job.Job{ID: i + 1, Arrival: at, Runtime: rt, Estimate: rt + int64(rng.Intn(400)), Width: rng.Intn(procs) + 1}
	}
	gaps := stats.NewRNG(42)
	remaps := []struct {
		name   string
		id     func(prev, i int) int
		hashed bool
	}{
		{"stride 3", func(_, i int) int { return 3*i + 1 }, true},
		{"gaps to 2^40", func(prev, _ int) int { return prev + 1 + gaps.Intn(1<<40) }, true},
		{"offset 1e12", func(_, i int) int { return 1_000_000_000_000 + i + 1 }, false},
	}
	type run struct {
		ps     []sim.Placement
		report metrics.Report
		a      *Auditor
	}
	simulate := func(kind string, pol sched.Policy, jobs []*job.Job, presize bool) run {
		t.Helper()
		mk, err := sched.MakerFor(kind, pol)
		if err != nil {
			t.Fatal(err)
		}
		s := mk(procs)
		a := New(procs, s, OptionsForKind(kind, pol))
		var ps []sim.Placement
		if presize {
			ps, err = sim.Run(sim.Machine{Procs: procs}, jobs, a, nil)
		} else {
			var ss *sim.Session
			if ss, err = sim.Open(sim.Machine{Procs: procs}, a, nil); err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if err = ss.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			ps, err = ss.Drain()
		}
		if err == nil {
			err = a.Err()
		}
		if err != nil {
			t.Fatalf("%s/%s, IDs up to %d: %v", kind, pol.Name(), jobs[n-1].ID, err)
		}
		outs := metrics.FromPlacements(ps, job.PaperThresholds())
		return run{ps, metrics.AnalyzeOutcomes(s.Name(), ps, outs, procs), a}
	}
	for _, kind := range sched.Kinds() {
		for _, pol := range []sched.Policy{sched.FCFS{}, sched.SJF{}, sched.XF{}} {
			want := simulate(kind, pol, dense, true)
			for _, rm := range remaps {
				jobs := make([]*job.Job, n)
				back := make(map[*job.Job]*job.Job, n)
				prev := 0
				for i, j := range dense {
					c := *j
					c.ID = rm.id(prev, i)
					prev = c.ID
					jobs[i] = &c
					back[&c] = j
				}
				for _, presize := range []bool{true, false} {
					got := simulate(kind, pol, jobs, presize)
					where := kind + "/" + pol.Name() + ", IDs " + rm.name
					if got.a.jobs.Hashed() != rm.hashed {
						t.Fatalf("%s, presized %v: the auditor's table is hashed = %v", where, presize, !rm.hashed)
					}
					for i := range got.ps {
						got.ps[i].Job = back[got.ps[i].Job]
					}
					if !reflect.DeepEqual(got.ps, want.ps) {
						t.Fatalf("%s, presized %v: placements differ from the dense run's", where, presize)
					}
					if !reflect.DeepEqual(got.report, want.report) {
						t.Fatalf("%s, presized %v: Report %+v, dense %+v", where, presize, got.report, want.report)
					}
				}
			}
		}
	}
}
