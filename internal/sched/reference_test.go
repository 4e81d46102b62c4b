// Brute-force references for every scheduler kind, under FCFS, SJF and XF.
// They are written from the definitions (Mu'alem and Feitelson for EASY
// and conservative backfilling, as DESIGN.md §4 states them; lookahead-k;
// the paper's §6 selective backfilling; Talby and Feitelson's slack; EASY
// plus selective suspension), never from the engines: this file imports
// only internal/job and the standard library, and calls nothing defined in
// another file. Time runs one second at a time, on per-second processor
// arrays, so the references suit workloads of tens of jobs, not traces.
//
// There are three references, and each kind is one of them with its
// parameters: easyReference (an EASY backfill order, none, and
// suspension), depthReference (the depth) and conservativeReference (a
// reservation rule's grant time, slack and compression). Each choice a
// definition leaves open is made by name, here or in the reference that
// makes it, with what the alternative changes: in how many of 3 000 random
// 10–29-job workloads on 8 processors some start moves, under FCFS/SJF/XF
// (DESIGN.md §7 repeats them):
//
//   - Simultaneous completions are taken one at a time, in the order their
//     jobs were dispatched (jobs dispatched at the same instant in policy
//     order), and under conservative each gets its own compression pass
//     (one per instant: 21/30/30; same-instant starts in arrival order:
//     0/10/3).
//   - A compression is one pass over the queue in policy order; it is not
//     iterated to a fixpoint (iterated: 173/374/203).
//   - Passes run only at event instants: an arrival or a completion. A
//     quantity that crosses a line between events (a selective or
//     preemption threshold) waits for the next one (a pass every second:
//     0/0/391 under EASY, none under conservative, 124/100/74 of 300 under
//     selective:2).
//
// All references take runtimes of at least one second and jobs numbered 1
// to n in (arrival, ID) order, the order the simulator delivers
// same-instant arrivals in.
package sched_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/job"
)

// refBefore reports whether policy pol ("FCFS", "SJF" or "XF") takes a
// before b at instant now. SJF orders by estimate; XF by expansion factor
// (wait + estimate) / estimate, largest first, compared exactly by
// cross-multiplying. Ties fall back to FCFS: arrival, then ID.
func refBefore(pol string, a, b *job.Job, now int64) bool {
	switch pol {
	case "FCFS":
	case "SJF":
		if a.Estimate != b.Estimate {
			return a.Estimate < b.Estimate
		}
	case "XF":
		xa := (now - a.Arrival + a.Estimate) * b.Estimate
		xb := (now - b.Arrival + b.Estimate) * a.Estimate
		if xa != xb {
			return xa > xb
		}
	default:
		panic(fmt.Sprintf("reference: unknown policy %q", pol))
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// refOrder sorts queue into pol's order at now, by insertion.
func refOrder(pol string, queue []*job.Job, now int64) {
	for i := 1; i < len(queue); i++ {
		for k := i; k > 0 && refBefore(pol, queue[k], queue[k-1], now); k-- {
			queue[k], queue[k-1] = queue[k-1], queue[k]
		}
	}
}

// refXF is j's expansion factor at now, (wait + estimate) / estimate, in
// the floating point a threshold is compared in.
func refXF(j *job.Job, now int64) float64 {
	return float64(now-j.Arrival+j.Estimate) / float64(j.Estimate)
}

// refHorizon is a length of per-second array no schedule of jobs outgrows:
// every job starts by the last arrival plus the sum of the estimates, a
// displacement pushes a window back by at most slack times its estimate,
// and a window ends one estimate after its start.
func refHorizon(jobs []*job.Job, slack float64) int64 {
	var h, est int64
	for _, j := range jobs {
		if j.Runtime < 1 {
			panic(fmt.Sprintf("reference: %v runs for less than a second", j))
		}
		h = max(h, j.Arrival)
		est += j.Estimate
	}
	return h + 2*est + int64(slack*float64(est)) + 1
}

// refHold adds width to used over [from, to).
func refHold(used []int, from, to int64, width int) {
	for t := from; t < to; t++ {
		used[t] += width
	}
}

// refEarliest is the first start at or after from whose window of dur
// seconds has width of procs processors free throughout, by used.
func refEarliest(used []int, procs int, from, dur int64, width int) int64 {
	s := from
	for t := s; t < s+dur; t++ {
		if procs-used[t] < width {
			s = t + 1
		}
	}
	return s
}

// refAct is one dispatch by a scheduler: at At, job ID starts (or
// resumes) or, with Suspend set, is suspended.
type refAct struct {
	At      int64
	ID      int
	Suspend bool
}

func (a refAct) String() string {
	if a.Suspend {
		return fmt.Sprintf("^%d@%d", a.ID, a.At)
	}
	return fmt.Sprintf("%d@%d", a.ID, a.At)
}

// refCanon sorts acts into the order they are compared in — by instant,
// suspensions first, then by job ID — and returns them.
func refCanon(acts []refAct) []refAct {
	slices.SortFunc(acts, func(a, b refAct) int {
		switch {
		case a.At != b.At:
			return int(a.At - b.At)
		case a.Suspend != b.Suspend:
			if a.Suspend {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	})
	return acts
}

// refActs renders acts in canonical order, space-separated.
func refActs(acts []refAct) string {
	s := make([]string, len(acts))
	for i, a := range refCanon(acts) {
		s[i] = a.String()
	}
	return strings.Join(s, " ")
}

// refRun is what every reference keeps of a run: the per-second array of
// processors held, the runners in dispatch order with each job's last
// dispatch and the runtime banked before it, the instants of completions
// a suspension cancelled, and the log of acts. Job IDs index its tables.
type refRun struct {
	procs        int
	jobs         []*job.Job
	used         []int
	running      []*job.Job
	last, banked []int64
	ghosts       map[int64]bool
	ended        int
	acts         []refAct
	// next is the first job yet to arrive; arrived and done back the lists
	// events returns.
	next          int
	arrived, done []*job.Job
	// plan is depthReference's plan of a pass; window and guarantee are
	// conservativeReference's start of each job's window (-1 while it holds
	// none) and latest start.
	plan              []int
	window, guarantee []int64
}

// refRuns recycles the references' tables: TestReferenceExhaustive calls
// them close to a million times.
var refRuns = sync.Pool{New: func() any { return new(refRun) }}

// refZeros returns s resized to n zeros, reusing its array.
func refZeros[T int | int64](s []T, n int64) []T {
	s = slices.Grow(s[:0], int(n))[:n]
	clear(s)
	return s
}

// newRefRun returns the empty state of a run of jobs; finish hands it back.
func newRefRun(procs int, jobs []*job.Job, slack float64) *refRun {
	for i, j := range jobs {
		if j.ID != i+1 || i > 0 && j.Arrival < jobs[i-1].Arrival {
			panic(fmt.Sprintf("reference: job %d of %v is not the next by arrival and ID", i+1, jobs))
		}
	}
	m := refRuns.Get().(*refRun)
	n := int64(len(jobs)) + 1
	*m = refRun{
		procs: procs, jobs: jobs,
		used:    refZeros(m.used, refHorizon(jobs, slack)),
		running: m.running[:0],
		last:    refZeros(m.last, n), banked: refZeros(m.banked, n),
		acts:    m.acts[:0],
		arrived: m.arrived[:0], done: m.done[:0],
		plan:   m.plan,
		window: refZeros(m.window, n), guarantee: refZeros(m.guarantee, n),
	}
	for i := range m.window {
		m.window[i] = -1
	}
	return m
}

// finish returns a copy of the log of acts and recycles m.
func (m *refRun) finish() []refAct {
	acts := slices.Clone(m.acts)
	refRuns.Put(m)
	return acts
}

// left is what j's estimate leaves after the runtime banked for it: the
// length of the window its next dispatch holds.
func (m *refRun) left(j *job.Job) int64 { return j.Estimate - m.banked[j.ID] }

// free is the number of processors nothing holds at now.
func (m *refRun) free(now int64) int { return m.procs - m.used[now] }

// events returns the jobs that arrive at now and the runners that complete
// at now, those in dispatch order, and whether the simulator steps at now:
// at an arrival, a completion, or a completion a suspension cancelled.
func (m *refRun) events(now int64) (arrived, done []*job.Job, step bool) {
	arrived, done = m.arrived[:0], m.done[:0]
	for ; m.next < len(m.jobs) && m.jobs[m.next].Arrival == now; m.next++ {
		arrived = append(arrived, m.jobs[m.next])
	}
	for _, r := range m.running {
		if m.last[r.ID]+r.Runtime-m.banked[r.ID] == now {
			done = append(done, r)
		}
	}
	m.arrived, m.done = arrived, done
	return arrived, done, len(arrived)+len(done) > 0 || m.ghosts[now]
}

// stop takes r off the machine at now and releases what its window held
// beyond now.
func (m *refRun) stop(r *job.Job, now int64) {
	refHold(m.used, now, m.last[r.ID]+m.left(r), -r.Width)
	m.running = slices.DeleteFunc(m.running, func(x *job.Job) bool { return x == r })
}

// complete ends runner r at now.
func (m *refRun) complete(r *job.Job, now int64) {
	m.stop(r, now)
	m.ended++
}

// start dispatches j at now. hold is false when its window is already held:
// a reservation falling due.
func (m *refRun) start(j *job.Job, now int64, hold bool) {
	m.last[j.ID] = now
	if hold {
		refHold(m.used, now, now+m.left(j), j.Width)
	}
	m.running = append(m.running, j)
	m.acts = append(m.acts, refAct{At: now, ID: j.ID})
}

// suspend takes runner j off the machine at now and banks what it ran; the
// completion its dispatch would have reached is cancelled.
func (m *refRun) suspend(j *job.Job, now int64) {
	if m.ghosts == nil {
		m.ghosts = map[int64]bool{}
	}
	m.ghosts[m.last[j.ID]+j.Runtime-m.banked[j.ID]] = true
	m.stop(j, now)
	m.banked[j.ID] += now - m.last[j.ID]
	m.acts = append(m.acts, refAct{At: now, ID: j.ID, Suspend: true})
}

// easyRule makes easyReference one member of the EASY family: which
// backfill candidate a pass prefers, and whether it suspends runners.
type easyRule struct {
	// order is "first" (priority order, EASY itself), "widest"
	// (easy:bestfit), "shortest" (easy:shortestfit) or "none" (no
	// backfilling at all).
	order string
	// A positive threshold lets a queued job whose expansion factor
	// reaches it have runners suspended for it (preemptive:<threshold>);
	// minRun is what a victim must have run since its last dispatch.
	threshold float64
	minRun    int64
}

// easyReference returns every dispatch under EASY backfilling with policy
// pol on procs processors, varied by rule. A pass runs at each event
// instant, after its completions and then its arrivals: it takes the queue
// in policy order and starts heads while they fit. For a blocked head, the
// shadow is the first second at which the runners' estimated ends leave
// enough processors free for it, and extra is what is free then beyond its
// width. A candidate fits if it fits now and either ends by the shadow or
// fits in what is left of extra. Under "first" every other job, in order,
// starts if it fits; under "widest" and "shortest" the widest (shortest by
// estimate) fitting candidate starts, again and again until none fits.
// With rule.threshold set, one more phase follows.
//
// Choices the definitions leave open, made here:
//
//   - The shadow and extra are computed once a pass, before any backfill
//     (recomputed after each start: none).
//   - Under "widest" and "shortest", ties go to the higher-priority
//     candidate (to the lower: 674/227/366 and 41/4/13).
//   - A preemption phase picks the queued job with the largest expansion
//     factor at or past the threshold — among equals the latest in policy
//     order (the earliest: 5/0/1 at threshold 10, 18/10/8 at 2, with a
//     minRun of 10) — and the runners it may suspend: not started by preemption
//     themselves, run at least minRun since their last dispatch, and with
//     a smaller expansion factor. Lowest priority first, as many as it takes
//     to free its width; when that is none or they cannot free it, nothing
//     happens. Otherwise they are suspended with their runtime banked, the
//     job starts, protected from suspension until it completes, and a
//     resumed job is planned by its estimate less the banked runtime.
//   - Passes also run at the instants of completions a suspension
//     cancelled, as the simulator steps there (not: 230/5/13 and
//     1 569/891/683). This is CHANGES.md's FOUND on sim.Session.Step, and
//     its fix removes the choice.
func easyReference(procs int, pol string, jobs []*job.Job, rule easyRule) []refAct {
	m := newRefRun(procs, jobs, 0)
	protected := map[int]bool{}
	var queue []*job.Job
	for now := int64(0); m.ended < len(jobs); now++ {
		arrived, done, step := m.events(now)
		if !step {
			continue
		}
		for _, r := range done {
			m.complete(r, now)
			delete(protected, r.ID)
		}
		queue = append(queue, arrived...)
		refOrder(pol, queue, now)
		for len(queue) > 0 && queue[0].Width <= m.free(now) {
			m.start(queue[0], now, true)
			queue = queue[1:]
		}
		if len(queue) > 1 && rule.order != "none" {
			queue = easyBackfill(m, queue, now, rule.order)
		}
		if rule.threshold > 0 && len(queue) > 0 {
			queue = easyPreempt(m, pol, queue, now, rule, protected)
		}
	}
	return m.finish()
}

// easyBackfill is easyReference's backfill against the reservation of
// queue's blocked head, under order. It returns the jobs still queued.
func easyBackfill(m *refRun, queue []*job.Job, now int64, order string) []*job.Job {
	head := queue[0]
	shadow := now
	for m.procs-m.used[shadow] < head.Width {
		shadow++
	}
	extra := m.procs - m.used[shadow] - head.Width
	fits := func(j *job.Job) (ok, byShadow bool) {
		byShadow = now+m.left(j) <= shadow
		return j.Width <= m.free(now) && (byShadow || j.Width <= extra), byShadow
	}
	take := func(j *job.Job) {
		if _, byShadow := fits(j); !byShadow {
			extra -= j.Width
		}
		m.start(j, now, true)
	}
	kept := []*job.Job{head}
	if order == "first" {
		for _, j := range queue[1:] {
			if ok, _ := fits(j); ok {
				take(j)
			} else {
				kept = append(kept, j)
			}
		}
		return kept
	}
	rest := slices.Clone(queue[1:])
	for {
		best := -1
		for i, j := range rest {
			if ok, _ := fits(j); !ok {
				continue
			}
			if best < 0 || order == "widest" && j.Width > rest[best].Width ||
				order == "shortest" && m.left(j) < m.left(rest[best]) {
				best = i
			}
		}
		if best < 0 {
			return append(kept, rest...)
		}
		take(rest[best])
		rest = slices.Delete(rest, best, best+1)
	}
}

// easyPreempt is easyReference's preemption phase (see its choices). It
// returns the jobs still queued.
func easyPreempt(m *refRun, pol string, queue []*job.Job, now int64, rule easyRule, protected map[int]bool) []*job.Job {
	var target *job.Job
	xf := rule.threshold
	for _, j := range queue {
		if x := refXF(j, now); x >= xf {
			target, xf = j, x
		}
	}
	if target == nil {
		return queue
	}
	var victims []*job.Job
	for _, r := range m.running {
		if !protected[r.ID] && now-m.last[r.ID] >= rule.minRun && refXF(r, now) < xf {
			victims = append(victims, r)
		}
	}
	refOrder(pol, victims, now)
	slices.Reverse(victims)
	freed, n := m.free(now), 0
	for n < len(victims) && freed < target.Width {
		freed += victims[n].Width
		n++
	}
	if n == 0 || freed < target.Width {
		return queue
	}
	queue = slices.DeleteFunc(queue, func(j *job.Job) bool { return j == target })
	for _, v := range victims[:n] {
		m.suspend(v, now)
		queue = append(queue, v)
	}
	protected[target.ID] = true
	m.start(target, now, true)
	return queue
}

// depthReference returns every start under lookahead-k backfilling with
// policy pol on procs processors. A pass runs at each event instant, after
// its completions and then its arrivals. It plans on a fresh array holding
// the runners' estimated windows and takes the queue in policy order: a job
// whose window fits in the plan from now starts; otherwise, while fewer
// than k jobs hold a slot in this pass's plan, it holds its earliest one,
// and past that it waits.
//
// Choices the definition leaves open, made here:
//
//   - The plan is rebuilt every pass from the runners' estimated windows;
//     no slot outlives its pass (kept, and only the depth left granted
//     anew: 0/2 693/2 177 at depth 2).
//   - A job that fits now starts and uses none of the depth (it counts:
//     212/409/424 at depth 2).
func depthReference(procs int, pol string, jobs []*job.Job, k int) []refAct {
	m := newRefRun(procs, jobs, 0)
	m.plan = refZeros(m.plan, int64(len(m.used)))
	plan := m.plan
	var queue []*job.Job
	for now := int64(0); m.ended < len(jobs); now++ {
		arrived, done, step := m.events(now)
		if !step {
			continue
		}
		for _, r := range done {
			m.complete(r, now)
		}
		queue = append(queue, arrived...)
		refOrder(pol, queue, now)
		copy(plan, m.used)
		held := 0
		kept := queue[:0]
		for _, j := range queue {
			s := refEarliest(plan, procs, now, j.Estimate, j.Width)
			switch {
			case s == now:
				m.start(j, now, true)
			case held < k:
				held++
				kept = append(kept, j)
			default:
				kept = append(kept, j)
				continue
			}
			refHold(plan, s, s+j.Estimate, j.Width)
		}
		queue = kept
	}
	return m.finish()
}

// resvRule makes conservativeReference one member of the reservation
// family: when a job is granted its window, how far a new window may push
// one existing window, and whether early completions compress.
type resvRule struct {
	// A job is granted its window as it arrives, unless threshold is set or
	// adaptive: then (selective:<threshold>, selective:adaptive) it holds
	// none and backfills until its expansion factor reaches the threshold,
	// which under adaptive is the mean expansion factor of the jobs started
	// so far, each at its start, at least 1.
	threshold float64
	adaptive  bool
	// slack (slack:<s>) lets an arrival displace one window, pushing it back
	// no later than its guarantee.
	slack float64
	// noCompress (conservative-nc) leaves the holes early completions open.
	noCompress bool
}

// conservativeReference returns every start under conservative
// backfilling with compression, with policy pol on procs processors, varied
// by rule. An arrival reserves the earliest window that every other window
// leaves free. A completion releases the unused tail of the finished job's
// window, and one compression pass follows: the queued windows, in policy
// order at that instant, each move to their earliest feasible start no
// later than their current one, all other windows held. Jobs whose window
// is due then start, in policy order; a selective job without a window
// starts, in its place in that order, if its window fits from now.
//
// Choices the definitions leave open, made here:
//
//   - Selective: the threshold is read once a pass, before its grants
//     (adaptive: the mean at that moment). A job crossing it waits for the
//     next event; so does a crossing the pass's own starts bring about
//     (re-read after the starts, under adaptive: 30/44/17).
//   - Slack: a job's guarantee is its first start plus ⌊slack × estimate⌋
//     (⌈⌉ at slack 0.5: 108/92/90). An arrival whose earliest window is
//     later than now tries, one at a time with all others held, each
//     window not already due; it takes the earliest start it can reach
//     with one of them moved to that window's earliest start given the
//     arrival's, as long as that is by the guarantee. At most one window
//     moves (two, at slack 1: 2 023/2 172/2 107), ties go to the higher
//     priority at now (lower: 334/284/284), and slack 0 moves none:
//     conservative.
//   - Without compression a window falling due between events starts then
//     (waiting for the next event deadlocks 2 847 of the 3 000).
func conservativeReference(procs int, pol string, jobs []*job.Job, rule resvRule) []refAct {
	m := newRefRun(procs, jobs, rule.slack)
	onArrival := rule.threshold == 0 && !rule.adaptive
	var queue []*job.Job
	var sumXF float64
	var started int
	for now := int64(0); len(m.acts) < len(jobs); now++ {
		arrived, done, step := m.events(now)
		if !step {
			for _, j := range queue {
				if m.window[j.ID] == now {
					if !rule.noCompress {
						panic(fmt.Sprintf("reference: %v's window falls due at %d, between events", j, now))
					}
					step = true
				}
			}
			if !step {
				continue
			}
		}
		for _, r := range done {
			m.complete(r, now)
			if rule.noCompress {
				continue
			}
			refOrder(pol, queue, now)
			for _, j := range queue {
				if m.window[j.ID] >= 0 {
					m.unhold(j)
					m.place(j, m.earliest(now, j))
				}
			}
		}
		for _, j := range arrived {
			if onArrival {
				m.grant(pol, queue, j, now, rule.slack)
			}
			queue = append(queue, j)
		}
		refOrder(pol, queue, now)
		if !onArrival {
			threshold := rule.threshold
			if rule.adaptive {
				threshold = 1
				if started > 0 {
					threshold = max(1, sumXF/float64(started))
				}
			}
			for _, j := range queue {
				if m.window[j.ID] < 0 && refXF(j, now) >= threshold {
					m.grant(pol, queue, j, now, 0)
				}
			}
		}
		kept := queue[:0]
		for _, j := range queue {
			switch w := m.window[j.ID]; {
			case w > now:
				kept = append(kept, j)
				continue
			case w >= 0:
				m.window[j.ID] = -1
				m.start(j, now, false)
			case m.earliest(now, j) == now:
				m.start(j, now, true)
			default:
				kept = append(kept, j)
				continue
			}
			sumXF += refXF(j, now)
			started++
		}
		queue = kept
	}
	return m.finish()
}

// earliest is the first start at or after from at which j's window fits.
func (m *refRun) earliest(from int64, j *job.Job) int64 {
	return refEarliest(m.used, m.procs, from, j.Estimate, j.Width)
}

// unhold takes j's window off the array; place puts it on at at.
func (m *refRun) unhold(j *job.Job) {
	w := m.window[j.ID]
	refHold(m.used, w, w+j.Estimate, -j.Width)
}

func (m *refRun) place(j *job.Job, at int64) {
	refHold(m.used, at, at+j.Estimate, j.Width)
	m.window[j.ID] = at
}

// grant gives j, arriving or promoted at now, its window: the earliest that
// every other window leaves free or, with slack, an earlier one a single
// displaced window of the queue makes (see conservativeReference).
func (m *refRun) grant(pol string, queue []*job.Job, j *job.Job, now int64, slack float64) {
	s := m.earliest(now, j)
	if slack > 0 && s > now {
		victims := slices.Clone(queue)
		refOrder(pol, victims, now)
		var victim *job.Job
		var to int64
		for _, k := range victims {
			w := m.window[k.ID]
			if w <= now {
				continue
			}
			m.unhold(k)
			if c := m.earliest(now, j); c < s {
				refHold(m.used, c, c+j.Estimate, j.Width)
				if kNew := m.earliest(now, k); kNew <= m.guarantee[k.ID] {
					s, victim, to = c, k, kNew
				}
				refHold(m.used, c, c+j.Estimate, -j.Width)
			}
			m.place(k, w)
		}
		if victim != nil {
			m.unhold(victim)
			m.place(victim, to)
		}
	}
	m.place(j, s)
	m.guarantee[j.ID] = s + int64(slack*float64(j.Estimate))
}

// refFunc is a reference with its rule bound: the form rows and pins take.
type refFunc func(procs int, pol string, jobs []*job.Job) []refAct

func refEASY(rule easyRule) refFunc {
	return func(procs int, pol string, jobs []*job.Job) []refAct {
		return easyReference(procs, pol, jobs, rule)
	}
}

func refDepth(k int) refFunc {
	return func(procs int, pol string, jobs []*job.Job) []refAct {
		return depthReference(procs, pol, jobs, k)
	}
}

func refResv(rule resvRule) refFunc {
	return func(procs int, pol string, jobs []*job.Job) []refAct {
		return conservativeReference(procs, pol, jobs, rule)
	}
}

// TestReferencePins pins the references under FCFS on small scenarios,
// worked by hand. A want lists every dispatch as job@instant, a suspension
// as ^job@instant, in refCanon's order.
func TestReferencePins(t *testing.T) {
	mk := func(id int, arrival, runtime, estimate int64, width int) *job.Job {
		return &job.Job{ID: id, Arrival: arrival, Runtime: runtime, Estimate: estimate, Width: width}
	}
	easy, con := refEASY(easyRule{order: "first"}), refResv(resvRule{})
	cases := []struct {
		name  string
		procs int
		jobs  []*job.Job
		refs  []refFunc
		want  []string
	}{{
		// The canonical backfill: J3 runs beside J1 while J2 waits for
		// J1's processors.
		name:  "backfill",
		procs: 10,
		jobs:  []*job.Job{mk(1, 0, 100, 100, 6), mk(2, 1, 100, 100, 6), mk(3, 2, 50, 50, 4)},
		refs:  []refFunc{easy, con},
		want:  []string{"1@0 3@2 2@100", "1@0 3@2 2@100"},
	}, {
		// EASY protects only the head, J2: J4 takes the processor J2
		// leaves over and delays J3 to its end. Conservative reserved J3
		// first, so J4 waits until J3 is done.
		name:  "head only",
		procs: 4,
		jobs:  []*job.Job{mk(1, 0, 10, 10, 3), mk(2, 1, 10, 10, 3), mk(3, 2, 10, 10, 4), mk(4, 3, 100, 100, 1)},
		refs:  []refFunc{easy, con},
		want:  []string{"1@0 4@3 2@10 3@103", "1@0 2@10 3@20 4@30"},
	}, {
		// J1 ends 20 s before its estimate; J2's window moves from 30 to
		// 21, when J3 frees its processors.
		name:  "compression",
		procs: 4,
		jobs:  []*job.Job{mk(1, 0, 10, 30, 2), mk(2, 0, 10, 10, 4), mk(3, 1, 20, 20, 2)},
		refs:  []refFunc{easy, con},
		want:  []string{"1@0 3@1 2@21", "1@0 3@1 2@21"},
	}, {
		// J2 is blocked until 10. At 1 both J3 (width 2, 5 s) and J4
		// (width 3, 8 s) end by the shadow, but only one fits beside J1:
		// first fit and shortest fit take J3, best fit the wider J4. No
		// backfilling at all leaves both behind J2, and J4 behind J3.
		name:  "backfill order",
		procs: 4,
		jobs:  []*job.Job{mk(1, 0, 10, 10, 1), mk(2, 0, 10, 10, 4), mk(3, 1, 5, 5, 2), mk(4, 1, 8, 8, 3)},
		refs: []refFunc{easy, refEASY(easyRule{order: "widest"}), refEASY(easyRule{order: "shortest"}),
			refEASY(easyRule{order: "none"})},
		want: []string{"1@0 3@1 2@10 4@20", "1@0 4@1 2@10 3@20", "1@0 3@1 2@10 4@20", "1@0 2@10 3@20 4@25"},
	}, {
		// J1 holds 3 of 4 processors until 10; J2 (width 2) is protected to
		// 10. J3 (width 4) is second in line: depth 2 protects it to 20, so
		// J4 (width 1, 20 s), which would run into it, waits for J3 to end.
		// Depth 1, like EASY, protects only J2, and J4 backfills at 3 into
		// the extra processor left at 10, pushing J3 to its end at 23.
		name:  "depth 2",
		procs: 4,
		jobs:  []*job.Job{mk(1, 0, 10, 10, 3), mk(2, 1, 10, 10, 2), mk(3, 2, 10, 10, 4), mk(4, 3, 20, 20, 1)},
		refs:  []refFunc{refDepth(2), refDepth(1), easy},
		want:  []string{"1@0 2@10 3@20 4@30", "1@0 4@3 2@10 3@23", "1@0 4@3 2@10 3@23"},
	}, {
		// J1 holds 2 of 4 processors to 10, J2 (width 4) is reserved at
		// 10 with guarantee 10 + 10 = 20. J3 (width 4, 2 s) arrives at 1:
		// its earliest free window is 20, but moving J2 to 12 — within its
		// guarantee — lets J3 run at 10. At slack 0.1 J2's guarantee is 11,
		// and as under conservative nothing moves.
		name:  "slack displacement",
		procs: 4,
		jobs:  []*job.Job{mk(1, 0, 10, 10, 2), mk(2, 0, 10, 10, 4), mk(3, 1, 2, 2, 4)},
		refs:  []refFunc{refResv(resvRule{slack: 1}), refResv(resvRule{slack: 0.1}), con},
		want:  []string{"1@0 3@10 2@12", "1@0 2@10 3@20", "1@0 2@10 3@20"},
	}, {
		// J2 (width 4, 2 s) backfills while it waits; at 3 its expansion
		// factor reaches 2 ((3 - 1 + 2) / 2) and it is promoted to a window
		// at 10, the end of J1's estimate, which J3 (width 1, 20 s, arrives
		// at 3) may not then cross. With no promotion J3 starts at 3 and J2
		// waits for it. J1 ends early, at 5, and compression pulls J2 there.
		name:  "selective promotion",
		procs: 4,
		jobs:  []*job.Job{mk(1, 0, 5, 10, 2), mk(2, 1, 2, 2, 4), mk(3, 3, 20, 20, 1)},
		refs:  []refFunc{refResv(resvRule{threshold: 2}), refResv(resvRule{threshold: 100})},
		want:  []string{"1@0 2@5 3@7", "1@0 3@3 2@23"},
	}, {
		// From NewPreemptive(4, FCFS, 1.5, 1) and CHANGES.md's FOUND on
		// sim.Session.Step. J2 (2 s of 2) reaches 1.5 at 1 and suspends
		// J1, which has run 1 s of its 2. At 2, the instant J1's cancelled
		// completion would have been, J3 backfills by the shadow of J2's
		// end at 3; J1 resumes then for its last second.
		name:  "suspension and resume",
		procs: 4,
		jobs:  []*job.Job{mk(1, 0, 2, 3, 3), mk(2, 0, 2, 2, 2), mk(3, 1, 1, 1, 2)},
		refs:  []refFunc{refEASY(easyRule{order: "first", threshold: 1.5, minRun: 1})},
		want:  []string{"1@0 ^1@1 2@1 3@2 1@3"},
	}}
	for _, c := range cases {
		for i, ref := range c.refs {
			if got := refActs(ref(c.procs, "FCFS", c.jobs)); got != c.want[i] {
				t.Errorf("%s, reference %d: %s, want %s", c.name, i, got, c.want[i])
			}
		}
	}
}
