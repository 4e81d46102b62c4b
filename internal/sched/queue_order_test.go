package sched

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stats"
)

// randomDriver plays a random program against one scheduler: arrivals,
// clock advances that deliver each completion and each Waker wake-up at its
// own instant, cancels of queued jobs, and repeated passes — on a
// Preemptive mostly LaunchAndPreempt, now and then a plain Launch, with the
// victims' runtime banked. after runs once after every call into the
// scheduler.
type randomDriver struct {
	s      incrSched
	procs  int
	r      *stats.RNG
	after  func(op string)
	now    int64
	runs   []incrRun
	ran    map[int]int64
	nextID int
}

func newRandomDriver(s incrSched, procs int, seed int64, after func(op string)) *randomDriver {
	return &randomDriver{s: s, procs: procs, r: stats.NewRNG(seed), after: after, ran: make(map[int]int64)}
}

// randomJob draws a job arriving now: mostly narrow, a quarter of them
// short, estimates up to three times the runtime.
func (d *randomDriver) randomJob() *job.Job {
	d.nextID++
	rt := int64(d.r.Intn(1500) + 100)
	if d.r.Bool(0.25) {
		rt = int64(d.r.Intn(20) + 1)
	}
	w := d.r.Intn(d.procs/4) + 1
	if d.r.Bool(0.3) {
		w = d.r.Intn(d.procs/2) + d.procs/2 + 1
	}
	return &job.Job{ID: d.nextID, Arrival: d.now, Runtime: rt, Estimate: rt + int64(d.r.Intn(2*int(rt)+1)), Width: w}
}

func (d *randomDriver) pass() {
	var starts, suspends []*job.Job
	if p, ok := d.s.(*Preemptive); ok && d.r.Bool(0.8) {
		starts, suspends = p.LaunchAndPreempt(d.now)
	} else {
		starts = d.s.Launch(d.now)
	}
	d.after("launch")
	for _, j := range suspends {
		i := slices.IndexFunc(d.runs, func(r incrRun) bool { return r.j == j })
		d.ran[j.ID] += d.now - d.runs[i].start
		d.runs = slices.Delete(d.runs, i, i+1)
	}
	for _, j := range starts {
		d.runs = append(d.runs, incrRun{j: j, start: d.now, end: d.now + j.Runtime - d.ran[j.ID]})
	}
}

// advance moves the clock forward by delta, with a pass after every event on
// the way and one at the end.
func (d *randomDriver) advance(delta int64) {
	target := d.now + delta
	for {
		next := -1
		for i, r := range d.runs {
			if r.end <= target && (next < 0 || r.end < d.runs[next].end ||
				r.end == d.runs[next].end && r.j.ID < d.runs[next].j.ID) {
				next = i
			}
		}
		var wake int64
		if w, ok := d.s.(sim.Waker); ok {
			wake = w.NextWake(d.now)
		}
		if wake > d.now && wake <= target && (next < 0 || wake < d.runs[next].end) {
			d.now = wake
			d.pass()
			continue
		}
		if next < 0 {
			break
		}
		r := d.runs[next]
		d.runs = slices.Delete(d.runs, next, next+1)
		d.now = r.end
		d.s.Complete(d.now, r.j)
		d.after("complete")
		d.pass()
	}
	d.now = target
	d.pass()
}

// run plays steps random operations, then drains the machine.
func (d *randomDriver) run(steps int) {
	for range steps {
		switch d.r.Intn(8) {
		case 0, 1, 2, 3:
			d.s.Arrive(d.now, d.randomJob())
			d.after("arrive")
			d.pass()
		case 4, 5:
			d.advance(int64(d.r.Intn(300) + 1))
		case 6:
			if q := d.s.QueuedJobs(); len(q) > 0 {
				d.s.Cancel(d.now, q[d.r.Intn(len(q))])
				d.after("cancel")
				d.pass()
			}
		default:
			d.pass()
		}
	}
	for range 200 {
		if len(d.runs) == 0 && len(d.s.QueuedJobs()) == 0 {
			return
		}
		d.advance(1000)
	}
}

// TestQueueStaysInPolicyOrder pins the preconditions that let resort skip
// the sort: under a time-invariant policy, after every call into a
// scheduler — arrival, pass, preempting pass, completion, cancel — its queue
// is in policy order; under an aging policy (XF, WFP), which the clock
// reorders, it is after every pass, at that pass's instant, so a second
// resort then has nothing to do. FuzzLaunchIncremental cannot see a break
// here, because both of its sides would skip the same sort.
func TestQueueStaysInPolicyOrder(t *testing.T) {
	const procs = 16
	kinds := make([]string, 0, len(kindCapabilities))
	for kind := range kindCapabilities {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		for _, pol := range []Policy{FCFS{}, SJF{}, LJF{}, XF{}, WFP{}} {
			aging := !PolicyTimeInvariant(pol)
			mk, err := MakerFor(kind, pol)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 4; seed++ {
				s := mk(procs).(incrSched)
				inOrder := s.(interface{ queueInOrder(int64) bool }).queueInOrder
				var d *randomDriver
				d = newRandomDriver(s, procs, seed, func(op string) {
					if aging && op != "launch" {
						return
					}
					if !inOrder(d.now) {
						t.Fatalf("%s/%s seed %d: queue out of policy order after %s at t=%d", kind, pol.Name(), seed, op, d.now)
					}
				})
				d.run(300)
			}
		}
	}
}
