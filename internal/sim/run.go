package sim

import (
	"fmt"

	"repro/internal/job"
)

// Machine describes the simulated parallel machine: a flat pool of identical
// processors, as in the paper's CTC (430-node) and SDSC SP2 (128-node)
// systems. Space sharing only; no migration.
type Machine struct {
	Procs int
}

// Validate reports whether the machine description is usable.
func (m Machine) Validate() error {
	if m.Procs < 1 {
		return fmt.Errorf("sim: machine with %d processors", m.Procs)
	}
	return nil
}

// Scheduler is the contract between the event engine and a scheduling
// policy. The engine calls Arrive and Complete as events fire and then asks
// Launch which waiting jobs to start at the current instant. Schedulers see
// only user estimates for planning; the engine alone knows actual runtimes
// (it schedules the completion event).
type Scheduler interface {
	// Name identifies the scheduler in reports, e.g. "EASY(SJF)".
	Name() string
	// Arrive notifies the scheduler that j was submitted at time now.
	Arrive(now int64, j *job.Job)
	// Complete notifies the scheduler that a previously launched job
	// released its processors at time now (possibly earlier than its
	// estimate promised).
	Complete(now int64, j *job.Job)
	// Launch returns every waiting job the scheduler starts at time now, in
	// start order. The engine calls it once per distinct event time, after
	// delivering all events at that instant. Launching only consumes
	// processors, so one call per instant is sufficient.
	Launch(now int64) []*job.Job
	// QueuedJobs returns the jobs still waiting (used for deadlock
	// detection and auditing).
	QueuedJobs() []*job.Job
}

// Waker is an optional Scheduler extension for policies whose next start
// decision can fall at an instant with no arrival or completion event (a
// fixed reservation under a scheduler that does not compress, for
// instance). After each event batch the engine asks for the next wake-up
// time and schedules a Timer event for it.
type Waker interface {
	// NextWake returns the earliest future instant (> now) at which the
	// scheduler wants Launch called again, or 0 when it needs none.
	NextWake(now int64) int64
}

// Preemptor is an optional Scheduler extension for policies that suspend
// running jobs (the "selective preemption" family). When implemented, the
// engine calls LaunchAndPreempt instead of Launch: suspensions are
// processed first (each victim's consumed runtime is banked and its pending
// completion cancelled), then starts — a start of a previously suspended
// job is a resume and runs only its remaining work. A suspended job stays
// with the scheduler (it must reappear in QueuedJobs) until resumed.
type Preemptor interface {
	Scheduler
	// LaunchAndPreempt returns the jobs to start (or resume) and the
	// running jobs to suspend at now, in that application order:
	// suspensions free processors that the same instant's starts may use.
	LaunchAndPreempt(now int64) (starts, suspends []*job.Job)
}

// Placement records where one job ended up in the schedule. Start is the
// first dispatch, End the final completion; for jobs that were preempted
// and resumed, End − Start exceeds Runtime by the time spent suspended.
type Placement struct {
	Job   *job.Job
	Start int64
	End   int64
}

// Observer receives schedule notifications during a run; tests use it to
// audit invariants online. Any hook may be nil. OnArrive and OnComplete
// fire after the scheduler has processed the event; OnStart fires as each
// dispatch (including resumes) is recorded; OnSuspend fires as a running
// job is preempted.
type Observer struct {
	OnArrive   func(now int64, j *job.Job)
	OnStart    func(now int64, j *job.Job)
	OnSuspend  func(now int64, j *job.Job)
	OnComplete func(now int64, j *job.Job)
}

// runState tracks the engine's ground truth for one job.
type runState struct {
	firstStart int64 // -1 until first dispatched
	lastStart  int64
	end        int64 // completion time, valid once done
	consumed   int64 // runtime executed before the current dispatch
	epoch      int   // increments on suspend; stale completions are dropped
	running    bool
	suspended  bool
	done       bool
}

// Run simulates jobs on machine m under scheduler s and returns one
// Placement per job, ordered by (first start time, job ID). It returns an
// error if any job is invalid, wider than the machine, or if the scheduler
// never starts some job (a scheduler deadlock — always a bug).
//
// Run is the batch facade over Session: it opens a session, submits every
// job, and drains. Incremental submission through a Session yields the
// identical schedule as long as jobs are submitted in the same relative
// order before their arrival instants are reached.
func Run(m Machine, jobs []*job.Job, s Scheduler, obs *Observer) ([]Placement, error) {
	ss, err := Open(m, s, obs)
	if err != nil {
		return nil, err
	}
	ss.presize(len(jobs))
	for _, j := range jobs {
		if err := ss.Submit(j); err != nil {
			return nil, err
		}
	}
	return ss.Drain()
}
