package main

import (
	"fmt"
	"time"

	"repro/internal/job"
	"repro/internal/sim"
)

// callAcc sums the calls made through one method of a timed scheduler.
type callAcc struct {
	n           int64
	busy        time.Duration
	first, last time.Time
}

func (a *callAcc) add(t0 time.Time) {
	now := time.Now()
	if a.n == 0 {
		a.first = t0
	}
	a.n++
	a.busy += now.Sub(t0)
	a.last = now
}

// addDur adds a call that started at t0 and took d.
func (a *callAcc) addDur(t0 time.Time, d time.Duration) {
	if a.n == 0 {
		a.first = t0
	}
	a.n++
	a.busy += d
	a.last = t0.Add(d)
}

// schedAcc is what a timed scheduler measured: time and calls per method,
// and how many launch passes started or suspended at least one job.
type schedAcc struct {
	arrive, complete, launch, wake, cancel callAcc
	useful                                 int64
}

func (a *schedAcc) busy() time.Duration { return a.total().busy }

func (a *schedAcc) methods() []*callAcc {
	return []*callAcc{&a.arrive, &a.complete, &a.launch, &a.wake, &a.cancel}
}

// total is every call through the wrapper as one accumulator.
func (a *schedAcc) total() callAcc {
	var out callAcc
	for _, m := range a.methods() {
		if m.n == 0 {
			continue
		}
		if out.n == 0 || m.first.Before(out.first) {
			out.first = m.first
		}
		if m.last.After(out.last) {
			out.last = m.last
		}
		out.n += m.n
		out.busy += m.busy
	}
	return out
}

// merge adds b's counts to a (first/last are not kept: merged accumulators
// feed metrics, not spans).
func (a *schedAcc) merge(b *schedAcc) {
	bm := b.methods()
	for i, m := range a.methods() {
		m.n += bm[i].n
		m.busy += bm[i].busy
	}
	a.useful += b.useful
}

// The optional scheduler capabilities, declared here the way internal/sim
// and internal/audit declare them: probed by shape, never required.
type (
	reservist interface{ Reservation(id int) (int64, bool) }
	guarantor interface{ Guarantee(id int) (int64, bool) }
	canceler  interface {
		Cancel(now int64, j *job.Job) bool
	}
)

// timed forwards the sim.Scheduler contract to inner and times each call.
// It is the benchmark's probe into internal/sched (placed between the
// auditor and the scheduler) and into internal/audit (placed around the
// auditor); the schedule must not change with it in place.
type timed struct {
	inner sim.Scheduler
	acc   *schedAcc
}

func (t *timed) Name() string { return t.inner.Name() }

func (t *timed) Arrive(now int64, j *job.Job) {
	t0 := time.Now()
	t.inner.Arrive(now, j)
	t.acc.arrive.add(t0)
}

func (t *timed) Complete(now int64, j *job.Job) {
	t0 := time.Now()
	t.inner.Complete(now, j)
	t.acc.complete.add(t0)
}

func (t *timed) Launch(now int64) []*job.Job {
	t0 := time.Now()
	starts := t.inner.Launch(now)
	t.acc.launch.add(t0)
	if len(starts) > 0 {
		t.acc.useful++
	}
	return starts
}

func (t *timed) QueuedJobs() []*job.Job { return t.inner.QueuedJobs() }

// Cancel delegates like audit.Auditor.Cancel: false when inner cannot.
func (t *timed) Cancel(now int64, j *job.Job) bool {
	c, ok := t.inner.(canceler)
	if !ok {
		return false
	}
	t0 := time.Now()
	done := c.Cancel(now, j)
	t.acc.cancel.add(t0)
	return done
}

// The capability mix-ins. The engine and the auditor change behaviour on
// what a scheduler's method set contains (a Guarantee method switches the
// auditor to slack semantics, a LaunchAndPreempt method replaces Launch),
// so a wrapper must expose exactly the capabilities its inner scheduler
// has. Reservation and Guarantee are map lookups the auditor makes once per
// queued job per event; they are forwarded untimed, which leaves their cost
// in the caller's layer.
type (
	wakeCap struct {
		w sim.Waker
		t *timed
	}
	preemptCap struct {
		p sim.Preemptor
		t *timed
	}
	resvCap struct{ r reservist }
	guarCap struct{ g guarantor }
)

func (c wakeCap) NextWake(now int64) int64 {
	t0 := time.Now()
	at := c.w.NextWake(now)
	c.t.acc.wake.add(t0)
	return at
}

func (c preemptCap) LaunchAndPreempt(now int64) (starts, suspends []*job.Job) {
	t0 := time.Now()
	starts, suspends = c.p.LaunchAndPreempt(now)
	c.t.acc.launch.add(t0)
	if len(starts)+len(suspends) > 0 {
		c.t.acc.useful++
	}
	return starts, suspends
}

func (c resvCap) Reservation(id int) (int64, bool) { return c.r.Reservation(id) }
func (c guarCap) Guarantee(id int) (int64, bool)   { return c.g.Guarantee(id) }

// wrapTimed returns a scheduler that behaves as inner and adds its call
// times to acc. It fails on a capability set it has no wrapper for, so a
// new scheduler kind cannot be measured under the wrong contract.
func wrapTimed(inner sim.Scheduler, acc *schedAcc) (sim.Scheduler, error) {
	t := &timed{inner: inner, acc: acc}
	w, isW := inner.(sim.Waker)
	p, isP := inner.(sim.Preemptor)
	r, isR := inner.(reservist)
	g, isG := inner.(guarantor)
	switch {
	case !isW && !isP && !isR && !isG: // none, easy, depth, selective
		return t, nil
	case isW && !isP && isR && !isG: // conservative
		return struct {
			*timed
			wakeCap
			resvCap
		}{t, wakeCap{w, t}, resvCap{r}}, nil
	case !isW && !isP && isR && isG: // slack
		return struct {
			*timed
			resvCap
			guarCap
		}{t, resvCap{r}, guarCap{g}}, nil
	case !isW && isP && !isR && !isG: // preemptive
		return struct {
			*timed
			preemptCap
		}{t, preemptCap{p, t}}, nil
	case isW && isP && isR && !isG: // audit.Auditor
		return struct {
			*timed
			wakeCap
			preemptCap
			resvCap
		}{t, wakeCap{w, t}, preemptCap{p, t}, resvCap{r}}, nil
	}
	return nil, fmt.Errorf("benchmark: no timing wrapper for %s (waker %v, preemptor %v, reservation %v, guarantee %v)",
		inner.Name(), isW, isP, isR, isG)
}
