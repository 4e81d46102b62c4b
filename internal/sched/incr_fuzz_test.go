package sched

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/job"
)

// This file differentially fuzzes the incremental pass machinery
// (DESIGN.md §15): every scheduler kind runs the same random
// arrive/advance/complete/cancel program twice — live, with the pass memo
// and fast paths enabled, and as a pristine reference with forceFull set so
// every Launch replays the whole queue — and the two must agree on every
// start decision, suspension, and queue permutation at every step. This is
// the proof obligation behind the no-op skip and the arrivals-only paths: a
// skipped or abbreviated pass must be observably identical to the full pass
// it avoided.

// incrSched is the scheduler surface the differential driver exercises.
type incrSched interface {
	Arrive(now int64, j *job.Job)
	Complete(now int64, j *job.Job)
	Launch(now int64) []*job.Job
	QueuedJobs() []*job.Job
	Cancel(now int64, j *job.Job) bool
	// forceFullPasses turns the scheduler into the reference copy: every
	// skip and incremental path is disabled, so each Launch sorts and scans
	// in full.
	forceFullPasses()
}

// incrMakers builds the scheduler matrix the fuzzer covers: every row of
// the registry's table — both EASY candidate orders and the adaptive
// selective threshold included — with a small argument in place of a
// family's, constructed twice per cell (live + reference).
func incrMakers(procs int, pol Policy) map[string]func() incrSched {
	smallArg := strings.NewReplacer("<x>", "2", "<k>", "2", "<s>", "1")
	out := make(map[string]func() incrSched, len(kindTable))
	for _, r := range kindTable {
		kind := smallArg.Replace(r.spelling)
		mk, err := MakerFor(kind, pol)
		if err != nil {
			panic(err)
		}
		out[kind] = func() incrSched {
			s := mk(procs).(incrSched)
			if p, ok := s.(*Preemptive); ok {
				p.minRun = 25 // the programs are too short for DefaultMinRun to ever elapse
			}
			return s
		}
	}
	return out
}

// incrRun is one running job in the driver's mini event loop.
type incrRun struct {
	j     *job.Job
	start int64
	end   int64 // completion instant: start + remaining runtime
}

// incrDriver replays one fuzz program against a live/reference pair,
// failing the test at the first divergence.
type incrDriver struct {
	t         *testing.T
	name      string
	live, ref incrSched
	now       int64
	runs      []incrRun
	// ran banks wall time already executed per job ID, so a job suspended
	// by the preemptive scheduler resumes with only its remainder.
	ran map[int]int64
	// plain makes every pass a Launch, even on a scheduler that can preempt;
	// programs switch it on and off, so a pass in either mode can follow one
	// in the other at the same instant.
	plain bool
}

func ids(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// launch runs one scheduling pass on both sides at d.now and checks that
// the start sequences, suspension sequences, and resulting queue
// permutations agree; started jobs enter the mini event loop with their
// true (remaining) runtimes.
func (d *incrDriver) launch() {
	var liveStarts, refStarts, liveSusp, refSusp []*job.Job
	if lp, ok := d.live.(*Preemptive); ok && !d.plain {
		liveStarts, liveSusp = lp.LaunchAndPreempt(d.now)
		refStarts, refSusp = d.ref.(*Preemptive).LaunchAndPreempt(d.now)
	} else {
		liveStarts = d.live.Launch(d.now)
		refStarts = d.ref.Launch(d.now)
	}
	if !sameIDs(ids(liveStarts), ids(refStarts)) {
		d.t.Fatalf("%s: t=%d starts diverge: live=%v ref=%v",
			d.name, d.now, ids(liveStarts), ids(refStarts))
	}
	if !sameIDs(ids(liveSusp), ids(refSusp)) {
		d.t.Fatalf("%s: t=%d suspends diverge: live=%v ref=%v",
			d.name, d.now, ids(liveSusp), ids(refSusp))
	}
	lq, rq := ids(d.live.QueuedJobs()), ids(d.ref.QueuedJobs())
	if !sameIDs(lq, rq) {
		d.t.Fatalf("%s: t=%d queues diverge: live=%v ref=%v", d.name, d.now, lq, rq)
	}
	for _, j := range liveSusp {
		for i := range d.runs {
			if d.runs[i].j.ID == j.ID {
				d.ran[j.ID] += d.now - d.runs[i].start
				d.runs = append(d.runs[:i], d.runs[i+1:]...)
				break
			}
		}
	}
	for _, j := range liveStarts {
		d.runs = append(d.runs, incrRun{j: j, start: d.now, end: d.now + (j.Runtime - d.ran[j.ID])})
	}
}

// advanceTo moves time forward to target, delivering each completion at its
// own instant (with a comparing pass after every event) on the way. Wake
// requests from Waker schedulers are honored exactly as the engine honors
// them: conservative-nc's fixed reservations must be claimed at their
// instant, or two overdue wide reservations realign against each other —
// a state real sessions never produce.
func (d *incrDriver) advanceTo(target int64) {
	for {
		next := -1
		for i := range d.runs {
			if d.runs[i].end > target {
				continue
			}
			if next < 0 || d.runs[i].end < d.runs[next].end ||
				(d.runs[i].end == d.runs[next].end && d.runs[i].j.ID < d.runs[next].j.ID) {
				next = i
			}
		}
		wake := int64(0)
		if w, ok := d.live.(interface{ NextWake(int64) int64 }); ok {
			wake = w.NextWake(d.now)
		}
		if wake > d.now && wake <= target && (next < 0 || wake < d.runs[next].end) {
			d.now = wake
			d.launch()
			continue
		}
		if next < 0 {
			break
		}
		r := d.runs[next]
		d.runs = append(d.runs[:next], d.runs[next+1:]...)
		d.now = r.end
		d.ran[r.j.ID] = r.j.Runtime
		d.live.Complete(d.now, r.j)
		d.ref.Complete(d.now, r.j)
		d.launch()
	}
	d.now = target
	d.launch()
}

// FuzzLaunchIncremental decodes each input into a machine size and an
// operation program, and replays it through every scheduler kind × policy
// cell with the incremental machinery both enabled and disabled. Any
// divergence in starts, suspensions, or queue order fails the input.
func FuzzLaunchIncremental(f *testing.F) {
	// A blocked-head backfill scenario with arrivals landing mid-block,
	// an exact-estimate batch, and a cancel-heavy program.
	f.Add([]byte("\x06\x00\x08\x40\x10\x00\x02\x05\x00\x03\x30\x00\x01\x20\x05\x04\x21"))
	f.Add([]byte("\x0a\x00\x04\x10\x00\x00\x06\x20\x00\x03\x63\x00\x01\x01\x01\x01\x01\x06\x02"))
	f.Add([]byte("\x04\x05\x03\x63\x30\x02\x00\x01\x3c\x00\x04\x40\x03\x80\x05\x01"))
	// A full-width runner and a full-width waiter; time advances under plain
	// Launch until the waiter is past the threshold and the runner past its
	// quantum, then the same instant is passed again with preemption allowed.
	f.Add([]byte("\x06\x00\x63\x00\x09\x00\x09\x00\x09\x0d\x03\x1d\x0d"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		procs := int(data[0]%13) + 4 // 4..16
		program := data[1:]
		if len(program) > 120 {
			program = program[:120]
		}
		pols := []Policy{FCFS{}, SJF{}, XF{}, WFP{}}
		for _, pol := range pols {
			for name, mk := range incrMakers(procs, pol) {
				runIncrProgram(t, fmt.Sprintf("%s/%s", name, pol.Name()), mk, procs, program)
			}
		}
	})
}

// runIncrProgram replays one decoded op program against a fresh live/ref
// pair. Ops: 0-2 arrive, 3-4 advance, 5 repeat the pass at the same
// instant (with bit 3 set, after switching between plain Launch and
// LaunchAndPreempt), 6-7 cancel a queued job.
func runIncrProgram(t *testing.T, name string, mk func() incrSched, procs int, program []byte) {
	live, ref := mk(), mk()
	ref.forceFullPasses()
	d := &incrDriver{t: t, name: name, live: live, ref: ref, ran: make(map[int]int64)}
	nextID := 1
	const maxJobs = 24
	for i := 0; i < len(program); i++ {
		switch op := program[i] % 8; {
		case op <= 2 && nextID <= maxJobs:
			if i+3 >= len(program) {
				return
			}
			rt := int64(program[i+1]%100) + 1
			j := &job.Job{
				ID:       nextID,
				Arrival:  d.now,
				Runtime:  rt,
				Estimate: rt + int64(program[i+2]%50),
				Width:    int(program[i+3])%procs + 1,
			}
			i += 3
			nextID++
			d.live.Arrive(d.now, j)
			d.ref.Arrive(d.now, j)
			d.launch()
		case op <= 4:
			if i+1 >= len(program) {
				return
			}
			delta := int64(program[i+1]%200) + 1
			i++
			d.advanceTo(d.now + delta)
		case op == 5:
			if program[i]&8 != 0 {
				d.plain = !d.plain
			}
			d.launch()
		default:
			if i+1 >= len(program) {
				return
			}
			q := d.live.QueuedJobs()
			i++
			if len(q) == 0 {
				continue
			}
			victim := q[int(program[i])%len(q)]
			lok := d.live.Cancel(d.now, victim)
			rok := d.ref.Cancel(d.now, victim)
			if lok != rok {
				t.Fatalf("%s: t=%d cancel(%d) diverges: live=%v ref=%v",
					name, d.now, victim.ID, lok, rok)
			}
			d.launch()
		}
	}
	// Drain: run the backlog to empty so tail-of-schedule decisions (where
	// reservations finally come due) are compared as well.
	for range [64]struct{}{} {
		if len(d.runs) == 0 && len(d.live.QueuedJobs()) == 0 {
			break
		}
		d.advanceTo(d.now + 500)
	}
}
