// Package audit enforces scheduler-correctness invariants online. The
// paper's contribution is a characterization of what each backfilling
// strategy *guarantees* — conservative backfilling promises every job its
// reservation, EASY promises only the head job, slack-based bounds every
// delay — and those guarantees deserve machine checks, not eyeballed
// averages.
//
// Auditor wraps any sim.Scheduler, intercepts every Arrive / Complete /
// Launch exchange with the event engine, and checks the invariant catalog
// after each one (see the Rule* constants). Violations are recorded for
// post-run inspection or, in Fail mode, panic immediately (the mode fuzz
// targets use). Whole schedules are held to independent brute-force
// references in internal/sched's tests, not here.
//
// The Auditor deliberately imports only sim and job (not sched): its own
// Policy interface is satisfied structurally by sched.Policy, and the
// scheduler-family hooks (Reservation, Guarantee, the reservation write
// log) are probed through small local interfaces. Scheduler-specific
// knowledge lives in the caller's Options (see OptionsForKind).
//
// Every rule costs O(what the event changed), not O(queue) (DESIGN.md §7):
// the queue mirror is an indexed heap in policy order, the running set a
// slice sorted by estimated end, and reservations are re-checked from the
// scheduler's write log. A policy without TimeInvariant or a scheduler
// without the write log is audited by the full scans instead — same
// verdicts, selected by the method set.
package audit

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/job"
	"repro/internal/sim"
)

// Mode selects how the Auditor reacts to a violation.
type Mode int

const (
	// Record collects violations for inspection after the run via Err,
	// Violations or Report. The default.
	Record Mode = iota
	// Fail panics on the first violation with the formatted finding. Fuzz
	// targets use it so a violation surfaces as a reported crash even when
	// the harness never reaches the post-run check.
	Fail
)

// Policy is the queue-priority contract the head-guarantee check needs.
// sched.Policy satisfies it structurally; it is re-declared here so this
// package does not import sched's wrapper-facing half.
type Policy interface {
	Name() string
	// Less orders job a before b at time now; it must induce a strict
	// total order for any fixed now.
	Less(a, b *job.Job, now int64) bool
}

// Invariant rule names, used as Violation.Rule. Together they form the
// auditor's invariant catalog (documented in DESIGN.md §7).
const (
	// RuleArrivalTime: Arrive must be delivered exactly at the job's
	// submission time.
	RuleArrivalTime = "arrival-time"
	// RuleDoubleArrive: a job arrives at most once.
	RuleDoubleArrive = "double-arrive"
	// RuleLaunchUnknown: only previously arrived jobs may start.
	RuleLaunchUnknown = "launch-unknown"
	// RuleLaunchBeforeArrival: no job starts before its arrival time.
	RuleLaunchBeforeArrival = "launch-before-arrival"
	// RuleDoubleLaunch: a running job must not be started again.
	RuleDoubleLaunch = "double-launch"
	// RuleRelaunchCompleted: a completed job must never run again.
	RuleRelaunchCompleted = "relaunch-completed"
	// RuleLaunchCancelled: a withdrawn job must never start.
	RuleLaunchCancelled = "launch-cancelled"
	// RuleDuplicateInBatch: one Launch batch must not contain a job twice.
	RuleDuplicateInBatch = "duplicate-in-batch"
	// RuleCapacity: the processors in use never exceed the machine size.
	RuleCapacity = "capacity"
	// RuleCompleteNotRunning: only running jobs complete.
	RuleCompleteNotRunning = "complete-not-running"
	// RuleKillAtEstimate: a job's total running time equals its actual
	// runtime and never exceeds its estimate (jobs are killed at the wall
	// limit, and resumed jobs run only their remainder).
	RuleKillAtEstimate = "kill-at-estimate"
	// RuleSuspendNotRunning: only running jobs may be preempted.
	RuleSuspendNotRunning = "suspend-not-running"
	// RuleReservationMonotone: a conservative reservation never moves
	// later (compression may only improve it).
	RuleReservationMonotone = "reservation-monotone"
	// RuleStartByReservation: a job starts no later than the reservation
	// granted at its arrival (conservative's no-delay guarantee).
	RuleStartByReservation = "start-by-reservation"
	// RuleSlackGuarantee: a slack-based job starts no later than its fixed
	// guarantee, and its reservation never drifts past the guarantee.
	RuleSlackGuarantee = "slack-guarantee"
	// RuleHeadNoDelay: EASY's single guarantee — the blocked head of the
	// queue starts no later than the shadow time computed from running
	// jobs' estimates (backfills must never push it past that bound).
	RuleHeadNoDelay = "head-no-delay"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Time is the simulation instant the breach was observed at.
	Time int64
	// Rule is the Rule* constant that was violated.
	Rule string
	// Job is the job involved, when there is one.
	Job *job.Job
	// Detail is a human-readable account of the breach.
	Detail string
}

// String renders the violation for logs and test failures.
func (v Violation) String() string {
	if v.Job != nil {
		return fmt.Sprintf("t=%d [%s] %v: %s", v.Time, v.Rule, v.Job, v.Detail)
	}
	return fmt.Sprintf("t=%d [%s] %s", v.Time, v.Rule, v.Detail)
}

// Report is the structured outcome of an audited run.
type Report struct {
	// Scheduler is the wrapped scheduler's Name.
	Scheduler string
	// Violations holds every recorded breach, in observation order, up to
	// the recording cap.
	Violations []Violation
	// Truncated counts breaches beyond the cap that were dropped.
	Truncated int
}

// Err summarises the report as an error, or nil when the run was clean.
func (r Report) Err() error {
	n := len(r.Violations) + r.Truncated
	if n == 0 {
		return nil
	}
	return fmt.Errorf("audit: %s: %d invariant violations; first: %s",
		r.Scheduler, n, r.Violations[0])
}

// Options configure an Auditor.
type Options struct {
	// Mode is Record (default) or Fail.
	Mode Mode
	// Policy, when set, lets the auditor identify the queue head for the
	// head-guarantee check. Required for CheckHeadGuarantee.
	Policy Policy
	// CheckHeadGuarantee enables the EASY head no-delay check. Only valid
	// for EASY-family schedulers (the invariant does not hold for
	// schedulers that deliberately hold startable work, like selective
	// promotion, or that suspend runners).
	CheckHeadGuarantee bool
	// MaxRecorded caps recorded violations (0 means the default of 100).
	// Further breaches only increment Report.Truncated.
	MaxRecorded int
}

// OptionsForKind returns the audit options appropriate for a scheduler
// kind string as understood by sched.MakerFor: the head-guarantee check is
// enabled for the EASY family, reservation- and slack-guarantee checks are
// probed from the scheduler itself and need no configuration.
func OptionsForKind(kind string, pol Policy) Options {
	opts := Options{Policy: pol}
	if kind == "easy" || strings.HasPrefix(kind, "easy:") {
		opts.CheckHeadGuarantee = true
	}
	return opts
}

// reservist is the conservative-family hook: the guaranteed start of a
// queued job. Probed, never required.
type reservist interface {
	Reservation(id int) (int64, bool)
}

// guarantor is the slack-family hook: the latest permitted start of a
// queued job. A scheduler exposing both Reservation and Guarantee is
// audited under slack semantics (reservations may move later, but never
// past the guarantee); Reservation alone means conservative semantics
// (reservations only ever move earlier).
type guarantor interface {
	Guarantee(id int) (int64, bool)
}

// writeLogger is the hook that makes the reservation rules cost O(moved): a
// scheduler that logs the ID of every job whose reservation it grants or
// moves. The returned drain yields the IDs written since its previous call.
// sched.Conservative and sched.SlackBased have it; a scheduler with
// Reservation but no log is audited by probing every queued job.
type writeLogger interface {
	TrackReservationWrites() (drain func() []int)
}

// timeInvariant is how a policy says that it orders any two jobs the same
// way at every instant (sched.FCFS, SJF, LJF). Absent means time-varying.
type timeInvariant interface {
	TimeInvariant() bool
}

// canceler mirrors sched.Canceler for delegation.
type canceler interface {
	Cancel(now int64, j *job.Job) bool
}

// jobState is the auditor's ground-truth mirror for one job. One is kept for
// every job ever seen, so the fields are ordered to pack into 64 bytes.
type jobState struct {
	j         *job.Job
	arrived   bool
	running   bool
	suspended bool
	done      bool
	cancelled bool
	// Reservation tracking (conservative / slack families).
	hasResv bool
	hasGuar bool
	// qpos is the job's index in Auditor.queue, -1 while it is not queued.
	qpos        int32
	lastStart   int64
	consumed    int64 // runtime finished before the current dispatch
	initialResv int64 // granted at arrival; the no-delay bound
	lastResv    int64 // most recently observed reservation
	guarantee   int64
}

// estEnd is when the job's current dispatch ends by its estimate.
func (st *jobState) estEnd() int64 {
	return st.lastStart + (st.j.Estimate - st.consumed)
}

// runner is one running job in Auditor.runners: what the shadow walk needs,
// by value, so the walk follows no pointers.
type runner struct {
	estEnd    int64
	id, width int
}

// cmpRunner orders runners by estimated end, then job ID.
func cmpRunner(a, b runner) int {
	if c := cmp.Compare(a.estEnd, b.estEnd); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// tables are an Auditor's per-job arrays: a presized auditor takes them
// from tablesPool and Release hands them back.
type tables struct {
	// jobs holds the record of every arrived job by ID. The records come
	// from slab and never move, so queue and head may point at them.
	jobs job.Table[*jobState]
	slab sim.Slab[jobState]
	// queue mirrors the jobs that are arrived and not running, done or
	// cancelled; each knows its index (jobState.qpos), so leaving the queue
	// from the middle is a true removal. When ordered it is a binary heap
	// in policy order and queue[0] is the head; otherwise it is an
	// unordered bag that the scans walk.
	queue []*jobState
	// runners is the running set sorted by (estEnd, ID), kept only under
	// CheckHeadGuarantee: the shadow time is a prefix walk over it.
	runners []runner
}

// tablesPool holds the tables released by finished batch runs, emptied but
// with their arrays, for the next Presize. A sync.Pool, so that the
// collector drops them rather than keeping them live between runs.
var tablesPool = sync.Pool{New: func() any { return new(tables) }}

// Auditor wraps a sim.Scheduler and checks the invariant catalog on every
// engine interaction. It implements sim.Scheduler, sim.Waker, sim.Preemptor
// and sim.QueueLender (delegating to the wrapped scheduler's capabilities), so
// wrapping never changes engine behaviour — only observes it — and
// sim.Presizer for its own tables.
type Auditor struct {
	inner sim.Scheduler
	procs int
	opts  Options
	max   int

	inUse int
	tables
	// pooled is the box Presize took tables from, for Release to hand them
	// back in; nil when the auditor was never presized.
	pooled *tables
	// ordered says queue is a heap in policy order.
	ordered bool

	resv      reservist     // non-nil when inner exposes Reservation
	guar      guarantor     // non-nil when inner exposes Guarantee
	drainResv func() []int  // non-nil when inner also logs reservation writes
	preempt   sim.Preemptor // non-nil when inner preempts
	waker     sim.Waker     // non-nil when inner wakes
	// breaches holds one event's reservation findings until all jobs have
	// been probed, so that they are recorded in job-ID order whichever way
	// (write log or scan) the jobs were visited. Empty between events.
	breaches []Violation

	// Head-guarantee tracking: the current blocked head and the earliest
	// shadow bound observed while it has continuously been head. headAt is
	// the instant of the last head scan (unordered queue only); stale says
	// a runner left the running set since headBound was last computed.
	head      *jobState
	headBound int64
	headAt    int64
	stale     bool

	violations []Violation
	truncated  int
}

// New wraps inner with an auditor for a machine with procs processors. It
// panics if procs < 1, inner is nil, or CheckHeadGuarantee is requested
// without a Policy.
func New(procs int, inner sim.Scheduler, opts Options) *Auditor {
	if procs < 1 {
		panic(fmt.Sprintf("audit: New with %d processors", procs))
	}
	if inner == nil {
		panic("audit: New with nil scheduler")
	}
	if opts.CheckHeadGuarantee && opts.Policy == nil {
		panic("audit: CheckHeadGuarantee requires a Policy")
	}
	max := opts.MaxRecorded
	if max <= 0 {
		max = 100
	}
	a := &Auditor{
		inner: inner,
		procs: procs,
		opts:  opts,
		max:   max,
	}
	if ti, ok := opts.Policy.(timeInvariant); ok && opts.CheckHeadGuarantee {
		a.ordered = ti.TimeInvariant()
	}
	a.resv, _ = inner.(reservist)
	a.guar, _ = inner.(guarantor)
	if wl, ok := inner.(writeLogger); ok && a.resv != nil {
		a.drainResv = wl.TrackReservationWrites()
	}
	a.preempt, _ = inner.(sim.Preemptor)
	a.waker, _ = inner.(sim.Waker)
	return a
}

// Presize implements sim.Presizer: before a run of jobs, their records and
// the table that finds them are allocated at once, and the wrapped
// scheduler, when it presizes too, is passed the jobs. Call it before the
// first event.
//
// The tables come from tablesPool: a batch run that presizes hands them
// back through Release. An auditor that is never presized, as a daemon's,
// neither takes nor keeps pooled tables.
func (a *Auditor) Presize(jobs []*job.Job) {
	if a.pooled == nil {
		a.pooled = tablesPool.Get().(*tables)
		a.tables = *a.pooled
	}
	a.jobs.Presize(jobs)
	a.slab.Reserve(len(jobs))
	if p, ok := a.inner.(sim.Presizer); ok {
		p.Presize(jobs)
	}
}

// Release hands the tables a presized auditor took back to tablesPool,
// emptied, for the next batch run. Call it once the run's Report or Err
// has been read, both of which copy; the auditor must not be used after.
// It does nothing on an auditor that was never presized.
func (a *Auditor) Release() {
	if a.pooled == nil {
		return
	}
	a.jobs.Clear()
	a.slab.Clear()
	clear(a.queue[:cap(a.queue)])
	*a.pooled = tables{jobs: a.jobs, slab: a.slab, queue: a.queue[:0], runners: a.runners[:0]}
	tablesPool.Put(a.pooled)
	a.tables, a.pooled, a.head = tables{}, nil, nil
}

// job returns job id's record, nil before the job arrives.
func (a *Auditor) job(id int) *jobState {
	st, _ := a.jobs.Get(id)
	return st
}

// Name delegates to the wrapped scheduler, so reports and metrics are
// unchanged by auditing.
func (a *Auditor) Name() string { return a.inner.Name() }

// Violations returns the recorded breaches.
func (a *Auditor) Violations() []Violation {
	return append([]Violation(nil), a.violations...)
}

// ViolationCount is the number of breaches observed so far, recorded and
// truncated alike — what a metrics publisher needs without copying the
// list.
func (a *Auditor) ViolationCount() int { return len(a.violations) + a.truncated }

// Report returns the structured outcome so far.
func (a *Auditor) Report() Report {
	return Report{
		Scheduler:  a.inner.Name(),
		Violations: a.Violations(),
		Truncated:  a.truncated,
	}
}

// Err returns an error summarising all violations, or nil — without
// building a report when there is nothing to report.
func (a *Auditor) Err() error {
	if a.ViolationCount() == 0 {
		return nil
	}
	return a.Report().Err()
}

// violate records (or, in Fail mode, panics with) one breach.
func (a *Auditor) violate(now int64, rule string, j *job.Job, format string, args ...any) {
	a.record(Violation{Time: now, Rule: rule, Job: j, Detail: fmt.Sprintf(format, args...)})
}

// record keeps v up to the recording cap, or panics with it in Fail mode.
func (a *Auditor) record(v Violation) {
	if a.opts.Mode == Fail {
		panic("audit: " + v.String())
	}
	if len(a.violations) >= a.max {
		a.truncated++
		return
	}
	a.violations = append(a.violations, v)
}

// less is the heap order of an ordered queue. The policy is time-invariant
// there, so the instant passed to it is immaterial.
func (a *Auditor) less(x, y *jobState) bool { return a.opts.Policy.Less(x.j, y.j, 0) }

// enqueue adds st to the queue mirror; a job already in it stays put.
func (a *Auditor) enqueue(st *jobState) {
	if st.qpos >= 0 {
		return
	}
	st.qpos = int32(len(a.queue))
	a.queue = append(a.queue, st)
	if a.ordered {
		a.siftUp(int(st.qpos))
	}
}

// dequeue removes st from the queue mirror, wherever in it st sits.
func (a *Auditor) dequeue(st *jobState) {
	i := int(st.qpos)
	if i < 0 {
		return
	}
	n := len(a.queue) - 1
	moved := a.queue[n]
	a.queue[i] = moved
	moved.qpos = int32(i)
	a.queue[n] = nil
	a.queue = a.queue[:n]
	st.qpos = -1
	if a.ordered && i < n && !a.siftDown(i) {
		a.siftUp(i)
	}
}

func (a *Auditor) siftUp(i int) {
	q := a.queue
	for i > 0 {
		p := (i - 1) / 2
		if !a.less(q[i], q[p]) {
			return
		}
		q[i], q[p] = q[p], q[i]
		q[i].qpos, q[p].qpos = int32(i), int32(p)
		i = p
	}
}

// siftDown reports whether the entry at i moved.
func (a *Auditor) siftDown(i int) bool {
	q := a.queue
	start := i
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && a.less(q[r], q[c]) {
			c = r
		}
		if !a.less(q[c], q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		q[i].qpos, q[c].qpos = int32(i), int32(c)
		i = c
	}
	return i > start
}

// addRunner enters a job that just started into the sorted running set. The
// head's bound stays fresh: a start takes processors now and returns them
// at its estimated end, so at every instant no more are free than before
// and the shadow of an unchanged head can only have moved later.
func (a *Auditor) addRunner(st *jobState) {
	if !a.opts.CheckHeadGuarantee {
		return
	}
	r := runner{estEnd: st.estEnd(), id: st.j.ID, width: st.j.Width}
	i, _ := slices.BinarySearchFunc(a.runners, r, cmpRunner)
	a.runners = slices.Insert(a.runners, i, r)
}

// removeRunner takes a running job out of the sorted running set, which
// can bring the head's shadow forward. It must run before lastStart or
// consumed change: they are the job's sort key.
func (a *Auditor) removeRunner(st *jobState) {
	if !a.opts.CheckHeadGuarantee {
		return
	}
	r := runner{estEnd: st.estEnd(), id: st.j.ID}
	if i, ok := slices.BinarySearchFunc(a.runners, r, cmpRunner); ok {
		a.runners = slices.Delete(a.runners, i, i+1)
	}
	a.stale = true
}

// Arrive checks arrival invariants, delegates, and snapshots any
// reservation the scheduler granted.
func (a *Auditor) Arrive(now int64, j *job.Job) {
	st := a.job(j.ID)
	if st == nil {
		st = a.slab.Take()
		*st = jobState{j: j, qpos: -1}
		a.jobs.Set(j.ID, st)
	}
	if st.arrived {
		a.violate(now, RuleDoubleArrive, j, "arrived again")
	}
	if now != j.Arrival {
		a.violate(now, RuleArrivalTime, j, "delivered at %d, submitted at %d", now, j.Arrival)
	}
	st.arrived = true
	a.enqueue(st)
	a.inner.Arrive(now, j)
	a.afterEvent(now, true)
}

// Complete checks completion invariants (including kill-at-estimate
// semantics) and delegates.
func (a *Auditor) Complete(now int64, j *job.Job) {
	st := a.job(j.ID)
	if st == nil || !st.running {
		a.violate(now, RuleCompleteNotRunning, j, "completed while not running")
	} else {
		ran := st.consumed + (now - st.lastStart)
		if ran != j.Runtime {
			a.violate(now, RuleKillAtEstimate, j,
				"finished after running %d, actual runtime %d", ran, j.Runtime)
		}
		if ran > j.Estimate {
			a.violate(now, RuleKillAtEstimate, j,
				"ran %d past its %d estimate (jobs are killed at the wall limit)", ran, j.Estimate)
		}
		a.removeRunner(st)
		st.running = false
		st.done = true
		a.inUse -= j.Width
	}
	a.inner.Complete(now, j)
	a.afterEvent(now, true)
}

// Launch delegates one scheduling pass and audits the returned batch.
func (a *Auditor) Launch(now int64) []*job.Job {
	starts := a.inner.Launch(now)
	a.observeBatch(now, starts, nil)
	return starts
}

// LaunchAndPreempt implements sim.Preemptor. When the wrapped scheduler
// does not preempt, it degenerates to a plain Launch with no suspensions —
// exactly what the engine would have done unwrapped.
func (a *Auditor) LaunchAndPreempt(now int64) (starts, suspends []*job.Job) {
	if a.preempt != nil {
		starts, suspends = a.preempt.LaunchAndPreempt(now)
	} else {
		starts = a.inner.Launch(now)
	}
	a.observeBatch(now, starts, suspends)
	return starts, suspends
}

// inBatch reports whether job id is among batch.
func inBatch(batch []*job.Job, id int) bool {
	for _, j := range batch {
		if j.ID == id {
			return true
		}
	}
	return false
}

// observeBatch audits one launch/suspend batch in engine application
// order: suspensions free processors that the same instant's starts use.
func (a *Auditor) observeBatch(now int64, starts, suspends []*job.Job) {
	// The scheduler made this pass over the queue as it stands at now. Under
	// an aging policy the head may have changed with the clock alone since
	// the last event (an instant can consist of nothing but a pass: a timer,
	// the arrival of a job withdrawn before it arrived), so the starts are
	// judged against the head of this instant. A no-op in every other case.
	a.trackHead(now, false)
	changed := false
	for _, j := range suspends {
		st := a.job(j.ID)
		if st == nil || !st.running {
			a.violate(now, RuleSuspendNotRunning, j, "suspended while not running")
			continue
		}
		a.removeRunner(st)
		st.consumed += now - st.lastStart
		st.running = false
		st.suspended = true
		a.inUse -= j.Width
		a.enqueue(st)
		changed = true
	}
	for i, j := range starts {
		st := a.job(j.ID)
		rule, detail := "", ""
		switch {
		case st == nil || !st.arrived:
			rule, detail = RuleLaunchUnknown, "started but never arrived"
		case st.done:
			rule, detail = RuleRelaunchCompleted, "started again after completing"
		case st.running:
			rule, detail = RuleDoubleLaunch, "started while already running"
		case st.cancelled:
			rule, detail = RuleLaunchCancelled, "started after being cancelled"
		}
		if rule != "" {
			// A job named twice in one batch always lands here the second
			// time — its first mention either started it or was refused for
			// a reason that still holds — so only refusals pay for the
			// look back through the batch.
			if inBatch(starts[:i], j.ID) {
				rule, detail = RuleDuplicateInBatch, "started twice in one batch"
			}
			a.violate(now, rule, j, "%s", detail)
			continue
		}
		if now < j.Arrival {
			a.violate(now, RuleLaunchBeforeArrival, j, "started at %d before arrival %d", now, j.Arrival)
		}
		if st.hasResv {
			// Conservative semantics: the arrival-time reservation is the
			// job's no-delay bound. Slack semantics: the fixed guarantee is.
			if a.guar == nil && now > st.initialResv {
				a.violate(now, RuleStartByReservation, j,
					"started at %d, reservation granted at arrival was %d", now, st.initialResv)
			}
		}
		if st.hasGuar && now > st.guarantee {
			a.violate(now, RuleSlackGuarantee, j,
				"started at %d past its guarantee %d", now, st.guarantee)
		}
		if a.opts.CheckHeadGuarantee && st == a.head && now > a.headBound {
			a.violate(now, RuleHeadNoDelay, j,
				"head started at %d past its shadow bound %d", now, a.headBound)
		}
		st.running = true
		st.suspended = false
		st.lastStart = now
		a.inUse += j.Width
		a.addRunner(st)
		a.dequeue(st)
		changed = true
		if a.inUse > a.procs {
			a.violate(now, RuleCapacity, j,
				"capacity exceeded: %d of %d processors in use", a.inUse, a.procs)
		}
	}
	a.afterEvent(now, changed)
}

// NextWake delegates to the wrapped scheduler's Waker capability.
func (a *Auditor) NextWake(now int64) int64 {
	if a.waker == nil {
		return 0
	}
	return a.waker.NextWake(now)
}

// Cancel delegates job withdrawal (the grid extension). A successfully
// cancelled job leaves the auditor's queue mirror and must never start.
func (a *Auditor) Cancel(now int64, j *job.Job) bool {
	c, ok := a.inner.(canceler)
	if !ok {
		return false
	}
	if !c.Cancel(now, j) {
		return false
	}
	if st := a.job(j.ID); st != nil {
		st.cancelled = true
		a.dequeue(st)
	}
	a.afterEvent(now, true)
	return true
}

// QueuedJobs delegates.
func (a *Auditor) QueuedJobs() []*job.Job { return a.inner.QueuedJobs() }

// LendQueue delegates to the wrapped scheduler's sim.QueueLender, declining
// when it has none.
func (a *Auditor) LendQueue() ([]*job.Job, bool) {
	if l, ok := a.inner.(sim.QueueLender); ok {
		return l.LendQueue()
	}
	return nil, false
}

// Reservation forwards the wrapped scheduler's reservation, if it keeps
// them, so code probing the scheduler structurally (state hashing, the
// serving snapshot) sees the same answer through the audit wrapper as it
// would against the bare scheduler.
func (a *Auditor) Reservation(id int) (int64, bool) {
	if a.resv == nil {
		return 0, false
	}
	return a.resv.Reservation(id)
}

// afterEvent runs the cross-cutting checks that hold between engine
// interactions: reservation/guarantee discipline and head tracking.
// changed says whether the event altered the queue or the running set.
func (a *Auditor) afterEvent(now int64, changed bool) {
	a.checkReservations(now)
	a.trackHead(now, changed)
}

// checkReservations probes the scheduler's per-job guarantees. With only a
// Reservation hook (conservative family) reservations must be monotone
// non-increasing; with a Guarantee hook too (slack family) they may move
// either way but never past the fixed guarantee. A scheduler that logs its
// reservation writes is probed for the logged, still-queued jobs only; any
// other is probed for every queued job, which finds the same changes.
func (a *Auditor) checkReservations(now int64) {
	switch {
	case a.resv == nil:
		return
	case a.drainResv != nil:
		for _, id := range a.drainResv() {
			if st := a.job(id); st != nil && st.qpos >= 0 {
				a.probe(now, st)
			}
		}
	default:
		for _, st := range a.queue {
			a.probe(now, st)
		}
	}
	if len(a.breaches) == 0 {
		return
	}
	found := a.breaches
	a.breaches = a.breaches[:0]
	slices.SortStableFunc(found, func(x, y Violation) int { return cmp.Compare(x.Job.ID, y.Job.ID) })
	for _, v := range found {
		a.record(v)
	}
}

// probe compares one queued job's reservation with the last one seen. A
// reservation (or a guarantee) is judged when it is first seen and whenever
// it has changed, so probing a job whose reservation stands is free of
// findings — which is what lets the write log stand in for the scan.
func (a *Auditor) probe(now int64, st *jobState) {
	t, ok := a.resv.Reservation(st.j.ID)
	if !ok {
		return
	}
	changed := !st.hasResv || t != st.lastResv
	if a.guar != nil && !st.hasGuar {
		if g, gok := a.guar.Guarantee(st.j.ID); gok {
			st.hasGuar = true
			st.guarantee = g
			changed = true
		}
	}
	if !changed {
		return
	}
	if !st.hasResv {
		st.hasResv = true
		st.initialResv = t
	} else if a.guar == nil && t > st.lastResv {
		a.breaches = append(a.breaches, Violation{now, RuleReservationMonotone, st.j,
			fmt.Sprintf("reservation moved later: %d -> %d", st.lastResv, t)})
	}
	st.lastResv = t
	if st.hasGuar && t > st.guarantee {
		a.breaches = append(a.breaches, Violation{now, RuleSlackGuarantee, st.j,
			fmt.Sprintf("reservation %d past its guarantee %d", t, st.guarantee)})
	}
}

// trackHead maintains the EASY head-guarantee bound: whenever a job is the
// blocked head of the priority queue, its start deadline is the earliest
// shadow time observed while it has continuously held the head. Estimates
// are upper bounds on runtimes, so each recomputed shadow is itself a valid
// bound and the minimum only tightens the check.
//
// The head of an ordered queue is queue[0]. Under a time-varying policy
// the order moves with the clock, so the head is found by a scan — skipped
// only when neither the state nor the instant has changed since the last
// one. Either way the bound is recomputed only for a new head or after a
// runner has left the running set: otherwise the shadow is the same
// runner's estimated end, a later one, or a later "now", and cannot lower
// the minimum.
func (a *Auditor) trackHead(now int64, changed bool) {
	if !a.opts.CheckHeadGuarantee {
		return
	}
	head := a.head
	switch {
	case len(a.queue) == 0:
		head = nil
	case a.ordered:
		head = a.queue[0]
	case changed || now != a.headAt:
		head = a.queue[0]
		for _, st := range a.queue[1:] {
			if a.opts.Policy.Less(st.j, head.j, now) {
				head = st
			}
		}
	}
	a.headAt = now
	switch {
	case head == nil:
		a.head = nil
	case head != a.head:
		a.head = head
		a.headBound = a.shadow(now, head.j)
		a.stale = false
	case a.stale:
		if bound := a.shadow(now, head.j); bound < a.headBound {
			a.headBound = bound
		}
		a.stale = false
	}
}

// shadow computes when, by current estimates, enough processors free up for
// j — the classic EASY shadow time. A job that already fits is due now.
func (a *Auditor) shadow(now int64, j *job.Job) int64 {
	avail := a.procs - a.inUse
	if avail >= j.Width {
		return now
	}
	for _, r := range a.runners {
		avail += r.width
		if avail >= j.Width {
			return r.estEnd
		}
	}
	// Unreachable for valid inputs: draining every runner frees the whole
	// machine, and the engine rejects jobs wider than it.
	return now
}

// Run simulates jobs on a procs-wide machine under s wrapped in an Auditor
// and returns the placements together with the audit report. It is the
// one-call entry point tests and fuzzers use; err covers engine failures,
// rep.Err() covers invariant violations.
func Run(procs int, jobs []*job.Job, s sim.Scheduler, opts Options) (ps []sim.Placement, rep Report, err error) {
	a := New(procs, s, opts)
	defer a.Release()
	ps, err = sim.Run(sim.Machine{Procs: procs}, jobs, a, nil)
	return ps, a.Report(), err
}
