package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/job"
)

// JobState is a Session's view of where one submitted job is in its
// lifecycle.
type JobState int

const (
	// StatePending: submitted to the session but its arrival instant has
	// not been reached yet (only possible when jobs are submitted with a
	// future arrival, as SWF replay does).
	StatePending JobState = iota
	// StateQueued: arrived and waiting in the scheduler's queue.
	StateQueued
	// StateRunning: dispatched and holding processors.
	StateRunning
	// StateSuspended: preempted; waiting to be resumed.
	StateSuspended
	// StateDone: completed.
	StateDone
	// StateCancelled: withdrawn before it ever started.
	StateCancelled
)

// String names the state the way the service API reports it.
func (s JobState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateDone:
		return "done"
	case StateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// JobInfo is a point-in-time snapshot of one job's progress, as reported by
// Session.Info.
type JobInfo struct {
	Job   *job.Job
	State JobState
	// Start is the first dispatch time; valid once the job has run.
	Start int64
	// End is the completion time; valid once State == StateDone.
	End int64
	// EstEnd is when the current dispatch ends by the user estimate; valid
	// while State == StateRunning. Forecasters treat it as the instant the
	// job's processors are guaranteed back.
	EstEnd int64
}

// sessionJob is the session's bookkeeping for one submitted job.
type sessionJob struct {
	j         *job.Job
	arrived   bool
	cancelled bool
	touched   bool // listed in Session.touched since the last drain
}

// canceler mirrors sched.Canceler: the optional scheduler capability of
// withdrawing a queued job. Probed structurally so sim keeps importing only
// job.
type canceler interface {
	Cancel(now int64, j *job.Job) bool
}

// Session is the incremental form of the event engine: the same loop Run
// drives to completion, exposed one instant at a time so long-running
// services can interleave job submission, cancellation, forecasting, and
// time advancement. A Session is not safe for concurrent use; the serving
// layer owns one goroutine per session.
//
// The lifecycle is Open → any mix of Submit/Cancel/Step/AdvanceTo → Drain
// (or Finish). Submitting every job up front and calling Drain is exactly
// Run — Run is implemented that way — so batch and incremental execution
// produce identical placements for identical submission orders.
type Session struct {
	m   Machine
	s   Scheduler
	obs *Observer

	q      *EventQueue
	jobs   map[int]*sessionJob
	states map[int]*runState
	// active holds the IDs of currently running jobs, so Running snapshots
	// cost O(in-flight) instead of scanning every job ever dispatched.
	active map[int]struct{}

	placements []Placement
	inFlight   int
	submitted  int
	cancelled  int
	completed  int

	waker     Waker
	preemptor Preemptor
	timers    map[int64]bool

	now     int64  // last processed instant
	stepped bool   // has any instant been processed
	version uint64 // bumped on every externally visible state change
	err     error  // sticky engine failure; the session is dead once set

	// touched lists, once each, the IDs of jobs whose externally visible
	// state (lifecycle state, start, end, estimated end) changed since the
	// last DrainTouched, while tracking is on; serving layers use it to patch
	// immutable snapshots instead of rebuilding them from every job the
	// session has ever seen. A list and a mark on the job, not a set: a Go
	// map never shrinks, and ranging over one that a preloaded trace once
	// filled would charge every later drain for that trace.
	tracking bool
	touched  []int
}

// Open starts a session on machine m under scheduler s. obs may be nil.
func Open(m Machine, s Scheduler, obs *Observer) (*Session, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("sim: open session with nil scheduler")
	}
	ss := &Session{
		m:      m,
		s:      s,
		obs:    obs,
		q:      NewEventQueue(),
		jobs:   make(map[int]*sessionJob),
		states: make(map[int]*runState),
		active: make(map[int]struct{}),
		timers: make(map[int64]bool),
	}
	ss.waker, _ = s.(Waker)
	ss.preemptor, _ = s.(Preemptor)
	return ss, nil
}

// presize sizes the per-job tables of a session that has seen no job yet
// for n submissions, so a batch run does not grow them step by step.
func (ss *Session) presize(n int) {
	ss.jobs = make(map[int]*sessionJob, n)
	ss.states = make(map[int]*runState, n)
	ss.placements = make([]Placement, 0, n)
}

// Now returns the last processed instant (0 before any event fires).
func (ss *Session) Now() int64 { return ss.now }

// TrackTouched turns on touched-job tracking: from this call on, the
// session records the ID of every job whose observable state changes, and
// DrainTouched hands the accumulated list over. The serving layer enables
// it once at startup; tracking is off by default so batch runs pay
// nothing.
func (ss *Session) TrackTouched() { ss.tracking = true }

// DrainTouched appends the IDs touched since the previous drain to buf, in
// the order they were first touched, and resets the list; a caller that
// drains after every batch reuses one buffer. Nothing is appended when
// tracking is off or nothing changed.
func (ss *Session) DrainTouched(buf []int) []int {
	for _, id := range ss.touched {
		ss.jobs[id].touched = false
	}
	buf = append(buf, ss.touched...)
	ss.touched = ss.touched[:0]
	return buf
}

// touch records an observable state change for job id (no-op when tracking
// is off).
func (ss *Session) touch(id int) {
	if !ss.tracking {
		return
	}
	if sj := ss.jobs[id]; sj != nil && !sj.touched {
		sj.touched = true
		ss.touched = append(ss.touched, id)
	}
}

// Version is a cheap, monotonically increasing state-change counter: it
// bumps on every successful Submit and Cancel and on every processed event
// instant. A serving layer can compare versions to know whether anything a
// client could observe has changed since it last rendered the session, and
// skip the rebuild when nothing has. Only the session's owning goroutine
// may call it (like every other method).
func (ss *Session) Version() uint64 { return ss.version }

// Err returns the sticky engine failure, or nil while the session is
// healthy.
func (ss *Session) Err() error { return ss.err }

// Submit enqueues one job for arrival at j.Arrival. The arrival must not
// predate the session's current instant: the scheduler already made its
// decisions for that past, and rewriting history would break the engine's
// determinism guarantee. Job IDs must be unique across the whole session.
func (ss *Session) Submit(j *job.Job) error {
	if ss.err != nil {
		return ss.err
	}
	if err := j.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if j.Width > ss.m.Procs {
		return fmt.Errorf("sim: %v requests %d processors but the machine has %d", j, j.Width, ss.m.Procs)
	}
	if ss.jobs[j.ID] != nil {
		return fmt.Errorf("sim: duplicate job ID %d in workload", j.ID)
	}
	if ss.stepped && j.Arrival < ss.now {
		return fmt.Errorf("sim: %v submitted at session time %d, after its arrival", j, ss.now)
	}
	ss.jobs[j.ID] = &sessionJob{j: j}
	ss.submitted++
	ss.version++
	ss.touch(j.ID)
	ss.q.Push(j.Arrival, Arrival, j)
	return nil
}

// Cancel withdraws a job that has not started. Pending jobs (arrival not
// yet delivered) are always cancellable; queued jobs additionally require
// the scheduler to implement the Cancel capability (all repo schedulers
// do). It returns false for unknown, running, suspended, or finished jobs —
// cancelling those is a client error, not an engine one.
func (ss *Session) Cancel(id int) bool {
	if ss.err != nil {
		return false
	}
	sj := ss.jobs[id]
	if sj == nil || sj.cancelled {
		return false
	}
	if st := ss.states[id]; st != nil {
		return false // dispatched at least once: running, suspended or done
	}
	if !sj.arrived {
		// The arrival event is still in the queue; mark it so delivery is
		// skipped when the instant comes.
		sj.cancelled = true
		ss.cancelled++
		ss.version++
		ss.touch(id)
		return true
	}
	c, ok := ss.s.(canceler)
	if !ok || !c.Cancel(ss.now, sj.j) {
		return false
	}
	sj.cancelled = true
	ss.cancelled++
	ss.version++
	ss.touch(id)
	// Canceler contract: freed capacity (a released reservation compresses
	// the queue) must be offered back to the scheduler at the same instant.
	if err := ss.launch(ss.now); err != nil {
		ss.err = err
	}
	return true
}

// NextEventTime reports the instant of the earliest pending event, if any.
func (ss *Session) NextEventTime() (int64, bool) {
	e, ok := ss.q.Peek()
	if !ok {
		return 0, false
	}
	return e.Time, true
}

// Pending reports how many submitted jobs have not yet completed or been
// cancelled.
func (ss *Session) Pending() int {
	return ss.submitted - ss.completed - ss.cancelled
}

// dispatch starts (or resumes) j at now, scheduling its completion.
func (ss *Session) dispatch(now int64, j *job.Job) error {
	if sj := ss.jobs[j.ID]; sj != nil && sj.cancelled {
		return fmt.Errorf("sim: scheduler %s launched cancelled %v", ss.s.Name(), j)
	}
	st := ss.states[j.ID]
	if st == nil {
		st = &runState{firstStart: -1}
		ss.states[j.ID] = st
	}
	switch {
	case st.done:
		return fmt.Errorf("sim: scheduler %s relaunched completed %v", ss.s.Name(), j)
	case st.running:
		return fmt.Errorf("sim: scheduler %s launched %v twice", ss.s.Name(), j)
	}
	if st.firstStart < 0 {
		st.firstStart = now
	}
	st.lastStart = now
	st.running = true
	st.suspended = false
	remaining := j.Runtime - st.consumed
	if remaining < 0 {
		return fmt.Errorf("sim: %v resumed with negative remaining runtime", j)
	}
	ss.inFlight++
	ss.active[j.ID] = struct{}{}
	ss.touch(j.ID)
	ss.q.PushEpoch(now+remaining, Completion, j, st.epoch)
	if ss.obs != nil && ss.obs.OnStart != nil {
		ss.obs.OnStart(now, j)
	}
	return nil
}

// suspend preempts running job j at now, banking its consumed runtime.
func (ss *Session) suspend(now int64, j *job.Job) error {
	st := ss.states[j.ID]
	if st == nil || !st.running {
		return fmt.Errorf("sim: scheduler %s suspended %v which is not running", ss.s.Name(), j)
	}
	st.consumed += now - st.lastStart
	if st.consumed >= j.Runtime {
		return fmt.Errorf("sim: %v suspended at %d after its work finished", j, now)
	}
	st.running = false
	st.suspended = true
	st.epoch++ // cancels the pending completion
	ss.inFlight--
	delete(ss.active, j.ID)
	ss.touch(j.ID)
	if ss.obs != nil && ss.obs.OnSuspend != nil {
		ss.obs.OnSuspend(now, j)
	}
	return nil
}

// launch runs one scheduling pass at now: ask the scheduler what to start
// (and, for preemptors, what to suspend), apply it, and arm the next wake-up
// timer.
func (ss *Session) launch(now int64) error {
	var starts, suspends []*job.Job
	if ss.preemptor != nil {
		starts, suspends = ss.preemptor.LaunchAndPreempt(now)
	} else {
		starts = ss.s.Launch(now)
	}
	for _, j := range suspends {
		if err := ss.suspend(now, j); err != nil {
			return err
		}
	}
	for _, j := range starts {
		if err := ss.dispatch(now, j); err != nil {
			return err
		}
	}
	if ss.waker != nil {
		if t := ss.waker.NextWake(now); t > now && !ss.timers[t] {
			ss.timers[t] = true
			ss.q.Push(t, Timer, nil)
		}
	}
	return nil
}

// Step processes the next event instant: it delivers every event scheduled
// there, then gives the scheduler one launch pass. It reports false when no
// events remain. A returned error is sticky — the scheduler violated the
// engine contract and the session cannot continue.
func (ss *Session) Step() (bool, error) {
	if ss.err != nil {
		return false, ss.err
	}
	head, ok := ss.q.Peek()
	if !ok {
		return false, nil
	}
	now := head.Time
	ss.now = now
	ss.stepped = true
	ss.version++
	// Deliver every event at this instant before asking for launches:
	// completions free processors and arrivals extend the queue, and the
	// scheduler should see the complete picture.
	for {
		head, ok := ss.q.Peek()
		if !ok || head.Time != now {
			break
		}
		e, _ := ss.q.Pop()
		switch e.Kind {
		case Completion:
			st := ss.states[e.Job.ID]
			if st == nil || e.epoch != st.epoch || !st.running {
				continue // cancelled by a preemption
			}
			st.running = false
			st.done = true
			st.end = now
			ss.inFlight--
			delete(ss.active, e.Job.ID)
			ss.completed++
			ss.placements = append(ss.placements, Placement{Job: e.Job, Start: st.firstStart, End: now})
			ss.touch(e.Job.ID)
			ss.s.Complete(now, e.Job)
			if ss.obs != nil && ss.obs.OnComplete != nil {
				ss.obs.OnComplete(now, e.Job)
			}
		case Arrival:
			if sj := ss.jobs[e.Job.ID]; sj != nil {
				if sj.cancelled {
					continue // withdrawn before arrival; never shown to the scheduler
				}
				sj.arrived = true
				ss.touch(e.Job.ID)
			}
			ss.s.Arrive(now, e.Job)
			if ss.obs != nil && ss.obs.OnArrive != nil {
				ss.obs.OnArrive(now, e.Job)
			}
		case Timer:
			delete(ss.timers, now) // wake-up: launch below does the work
		}
	}
	if err := ss.launch(now); err != nil {
		ss.err = err
		return false, err
	}
	return true, nil
}

// AdvanceTo processes every event instant up to and including t. Events
// beyond t stay pending; the session's clock never runs ahead of the
// latest processed event.
func (ss *Session) AdvanceTo(t int64) error {
	for {
		next, ok := ss.NextEventTime()
		if !ok || next > t {
			return ss.err
		}
		if _, err := ss.Step(); err != nil {
			return err
		}
	}
}

// Finish verifies the end-of-run invariants (no deadlocked jobs, no
// lost completions) and returns every placement ordered by (first start,
// job ID). It is valid only once no events remain.
func (ss *Session) Finish() ([]Placement, error) {
	if ss.err != nil {
		return nil, ss.err
	}
	if ss.q.Len() > 0 {
		return nil, fmt.Errorf("sim: Finish with %d events still pending", ss.q.Len())
	}
	if leftover := ss.s.QueuedJobs(); len(leftover) > 0 {
		return nil, fmt.Errorf("sim: scheduler %s deadlocked with %d jobs never started (first: %v)", ss.s.Name(), len(leftover), leftover[0])
	}
	if ss.inFlight != 0 {
		return nil, fmt.Errorf("sim: %d jobs still in flight after event queue drained", ss.inFlight)
	}
	if want := ss.submitted - ss.cancelled; len(ss.placements) != want {
		return nil, fmt.Errorf("sim: %d placements for %d jobs", len(ss.placements), want)
	}
	return ss.Placements(), nil
}

// Drain runs the session to completion and returns the final placements:
// the batch tail of the incremental interface.
func (ss *Session) Drain() ([]Placement, error) {
	for {
		ok, err := ss.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	return ss.Finish()
}

// Placements returns a sorted copy of the placements recorded so far,
// ordered by (first start time, job ID). During a run it is a prefix of the
// final schedule (completed jobs only).
func (ss *Session) Placements() []Placement {
	ps := append([]Placement(nil), ss.placements...)
	slices.SortFunc(ps, func(a, b Placement) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Job.ID, b.Job.ID)
	})
	return ps
}

// Info reports the current state of one submitted job.
func (ss *Session) Info(id int) (JobInfo, bool) {
	sj := ss.jobs[id]
	if sj == nil {
		return JobInfo{}, false
	}
	info := JobInfo{Job: sj.j, Start: -1, End: -1, EstEnd: -1}
	st := ss.states[id]
	switch {
	case sj.cancelled:
		info.State = StateCancelled
	case st == nil:
		if sj.arrived {
			info.State = StateQueued
		} else {
			info.State = StatePending
		}
	case st.done:
		info.State = StateDone
		info.Start = st.firstStart
		info.End = st.end
	case st.running:
		info.State = StateRunning
		info.Start = st.firstStart
		info.EstEnd = st.lastStart + (sj.j.Estimate - st.consumed)
	case st.suspended:
		info.State = StateSuspended
		info.Start = st.firstStart
	default:
		// Dispatched state exists but neither running nor done: unreachable
		// for a healthy engine; report queued as the conservative answer.
		info.State = StateQueued
	}
	return info, true
}

// Infos returns a point-in-time snapshot of every submitted job, in no
// particular order. Serving layers use it to build immutable state
// snapshots in one pass instead of querying job by job.
func (ss *Session) Infos() []JobInfo {
	out := make([]JobInfo, 0, len(ss.jobs))
	for id := range ss.jobs {
		if info, ok := ss.Info(id); ok {
			out = append(out, info)
		}
	}
	return out
}

// Queued returns the scheduler's waiting jobs (including suspended ones for
// preemptive schedulers), in the scheduler's own order.
func (ss *Session) Queued() []*job.Job { return ss.s.QueuedJobs() }

// Running returns a snapshot of every running job, ordered by job ID — the
// machine half of the state a start-time forecast needs.
func (ss *Session) Running() []JobInfo {
	out := make([]JobInfo, 0, ss.inFlight)
	for id := range ss.active {
		if info, ok := ss.Info(id); ok {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Job.ID < out[k].Job.ID })
	return out
}
