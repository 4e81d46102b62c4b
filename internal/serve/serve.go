// Package serve turns the batch simulator into an online scheduling
// service: a long-running daemon that owns one incremental sim.Session,
// accepts job submissions and cancellations over HTTP while virtual time
// flows (real-time, N×-accelerated, or as-fast-as-possible), answers
// status queries with a predicted start time for queued jobs (the
// "showstart" feature of production batch systems), and exposes
// Prometheus metrics.
//
// Concurrency model: one mutex, Server.mu, guards the session, the
// scheduler and the counters, which keeps the discrete-event core
// single-threaded (its determinism guarantee). Whoever holds it may run a
// batch of writes (flat combining). The scheduler loop started by Run holds
// it except while it is parked waiting for work. A write (submit, cancel)
// is a pooled typed command: when the lock is free the writer runs the
// batch itself, its own command plus whatever other writers left in the
// mailbox channel; when it is busy the command goes into the mailbox, which
// the loop always selects on. Either way a burst of submissions pays one
// snapshot rebuild, not one per request. Reads never take the lock: after
// every step or command batch the holder publishes an immutable Snapshot
// through an atomic pointer, and GET /v1/queue, GET /v1/jobs/{id}, /healthz
// and /metrics render from the latest snapshot on the HTTP goroutines.
// What a read derives from a version — its start-time forecast and its
// /v1/queue and /metrics bodies — is memoized in that snapshot with
// single-flight coalescing, so the conservative dry-run and each render run
// at most once per state change regardless of how many clients poll.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/instr"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wal"
)

// ErrStopped is returned for writes that reach the server after its
// scheduler loop has exited (or while it is draining). Reads are served
// from the last published snapshot instead, so health checks and metric
// scrapes stay green through a graceful drain.
var ErrStopped = errors.New("serve: scheduler stopped")

// ErrQuorum is returned for writes whose commit batch was durable on the
// leader but did not gather Durability.AckQuorum follower confirmations in
// time (strict mode only; degrade mode acknowledges instead). The records
// ARE in the leader's journal — a recovery or a later quorum will carry
// them — so the client must treat the write's fate as unknown, not absent.
var ErrQuorum = errors.New("serve: write durable on leader but follower ack quorum not reached")

// publishStride bounds how many event instants an as-fast-as-possible
// advance (or a drain) processes between snapshot publications, so that
// readers watch a replay progress. It costs about a third of a max-speed
// replay's time over one publication per advance (DESIGN.md §10).
const publishStride = 64

// Options configure a Server.
type Options struct {
	// Procs is the machine size (required, >= 1).
	Procs int
	// Scheduler is the scheduler kind accepted by sched.MakerFor.
	// Defaults to "easy".
	Scheduler string
	// Policy is the queue priority policy name. Defaults to "FCFS".
	Policy string
	// Audit wraps the live session in the invariant auditor. On by
	// default in cmd/schedd; zero value here means off for tests that
	// want the raw scheduler.
	Audit bool
	// Speed is the virtual-seconds-per-wall-second ratio: 1 is real time,
	// 60 replays a day per wall-clock day-and-a-half of trace per minute,
	// and <= 0 runs as fast as possible (tests, smoke runs).
	Speed float64
	// Thresholds classify completed jobs for the per-category metrics;
	// zero value means the paper's Table 1 thresholds.
	Thresholds job.Thresholds
	// Debug mounts net/http/pprof under /debug/pprof/ on the API mux so a
	// live daemon can be profiled in place (see PERFORMANCE.md). Off by
	// default: the profile endpoints expose stacks and heap contents, so
	// only enable them on trusted listeners.
	Debug bool
	// Durability configures the write-ahead journal; the zero value (no
	// directory) runs the daemon in-memory only. See durable.go.
	Durability DurabilityOptions
	// IDStart and IDStride pin the server's job-ID arithmetic sequence:
	// assigned IDs are IDStart, IDStart+IDStride, IDStart+2·IDStride, ...
	// The defaults (1, 1) are the standalone daemon's 1, 2, 3, ...; a
	// federation gives shard i of N the class (i+1, N) so IDs are globally
	// unique without shards coordinating. See internal/fed.
	IDStart  int
	IDStride int
	// Follower names the leader this server replicates (an address or a
	// journal directory, used verbatim in error messages). A follower
	// server never runs its own scheduler loop: an external applier
	// (internal/replica) feeds it journal records through ApplyFramed and
	// it publishes snapshots for the lock-free read path exactly like a
	// leader. Writes are refused with 421 and the leader's address;
	// Durability.Dir is not opened (it is reserved as the promotion
	// target). Promote lifts the fence.
	Follower string
}

func (o Options) withDefaults() Options {
	if o.Scheduler == "" {
		o.Scheduler = "easy"
	}
	if o.Policy == "" {
		o.Policy = "FCFS"
	}
	if o.Thresholds == (job.Thresholds{}) {
		o.Thresholds = job.PaperThresholds()
	}
	if o.IDStride < 1 {
		o.IDStride = 1
	}
	if o.IDStart < 1 {
		o.IDStart = 1
	}
	o.Durability = o.Durability.withDefaults()
	return o
}

// command is one write: a cancel of job id or a submit of req; what its
// batch writes back (a submit's new ID; the outcome, or a batch-level
// failure such as a strict-mode quorum miss); and done, the one-slot signal
// the batch sends on only once it has executed and its snapshot is
// published, so a waiter that goes on to read the snapshot sees its own
// write. Commands are pooled (exec).
type command struct {
	cancel bool
	req    SubmitRequest
	id     int
	err    error
	sent   time.Time // when exec made it: the start of its wait for a batch
	done   chan struct{}
}

// commands pools the mailbox entries, each with its done channel.
var commands = sync.Pool{New: func() any { return &command{done: make(chan struct{}, 1)} }}

// Server is one online scheduling service instance.
type Server struct {
	opts  Options
	pol   sched.Policy
	inner sim.Scheduler  // the raw scheduler (forecast probes its reservations)
	name  string         // inner.Name(), resolved once: it formats on every call
	aud   *audit.Auditor // non-nil when Options.Audit
	sess  *sim.Session
	ctr   *counters
	clock *Clock

	// mu guards the session, the scheduler, the counters and every field
	// below that is neither atomic nor documented as shared (see the
	// package comment). The loop holds it except while parked; a writer
	// that finds it free runs its batch under it.
	mu      sync.Mutex
	live    bool // Run is serving writes: its clock exists and it has not returned
	cmds    chan *command
	wake    chan struct{} // one slot: a combining writer or a landed checkpoint asks the parked loop to look again
	armed   int64         // the virtual instant the parked loop's timer is set for; MaxInt64 for none
	failed  error         // a combining writer's batch failure (commit error or panic), which Run returns
	stopped chan struct{}
	nextID  int
	drained bool

	// Lock-free read path state. snap is written only under mu (and by
	// New/Preload before Run starts); fcHead, the forecast chain's head
	// (forecastSlot), is shared with HTTP goroutines.
	snap           atomic.Pointer[Snapshot]
	fcHead         atomic.Pointer[Snapshot]
	pub            uint64     // last published snapshot version
	pubSessVersion uint64     // session version the last snapshot was built from
	pubDirty       bool       // counter changed without a session mutation (e.g. a rejected submit)
	touched        []int      // deltaSnapshot's drain buffer, reused
	fqueued        []*job.Job // the only appendable handle on published queues (publishedQueue)
	batch          []*command

	// passer is inner when it counts its passes by kind.
	passer passCounter
	// ins are the counters and timings GET /v1/debug/stats renders.
	ins instruments

	// Durability state, guarded by mu (see durable.go).
	log             *wal.Log
	walRecs         []wal.Record // staged records of the in-flight commit batch
	walVer          uint64       // session version at the last staged record
	hist            wal.History  // a follower's replay history, which Promote seeds a fresh journal with
	ckptAt          time.Time    // wall time of the last checkpoint capture (age trigger)
	ckptUnix        int64        // unix time of the last durable checkpoint (reporting)
	ckpt            *wal.Pending // the checkpoint whose write runs on its own goroutine; nil for none
	ckptDone        chan error   // that write's outcome; one slot, as at most one is in flight
	ckptHook        func()       // tests: runs on the write's goroutine before it writes
	recovered       *RecoveryInfo
	replayedAdvance bool // recovery replayed a clock advance; resume there

	// Replay's own storage: the jobs of replayed submit records come from
	// a slab, and ApplyRecords frames records in a reused buffer.
	replayed   sim.Slab[job.Job]
	histFrames []byte

	// Replication state (see replication.go). walSeq mirrors the last
	// durable journal seq for HTTP goroutines and walAppended the last
	// appended one, which runs ahead of it from just before a batch's
	// write until its fsync returns; termPub the current leadership term;
	// followerMode fences writes on a replica; walDirPub the journal
	// directory the /v1/wal endpoint streams from.
	walSeq       atomic.Uint64
	walAppended  atomic.Uint64
	termPub      atomic.Uint64
	followerMode atomic.Bool
	walDirPub    atomic.Pointer[string]
	flw          followerRegistry

	// walNotify, made on demand by a waiting /v1/wal long-poll, is closed
	// and cleared by the next journal append so the poll wakes at once
	// instead of on its next tick — the latency floor for follower catch-up
	// and therefore for quorum acks.
	walNotify atomic.Pointer[chan struct{}]
}

// New builds a server. Run must be called before writes are accepted; the
// read endpoints work immediately, rendering the initial empty snapshot.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Procs < 1 {
		return nil, fmt.Errorf("serve: options have %d processors", opts.Procs)
	}
	pol, err := sched.PolicyByName(opts.Policy)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	mk, err := sched.MakerFor(opts.Scheduler, pol)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		opts:  opts,
		pol:   pol,
		inner: mk(opts.Procs),
		ctr:   new(counters),
		// The mailbox is buffered so a burst of writers parks in the channel
		// instead of rendezvousing one-by-one with the loop; runBatch then
		// drains the backlog into a single batch (one snapshot rebuild, one
		// forecast invalidation) regardless of how the goroutines interleave.
		cmds:     make(chan *command, 128),
		wake:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
		nextID:   opts.IDStart,
		ckptDone: make(chan error, 1),
	}
	s.name = s.inner.Name()
	s.passer, _ = s.inner.(passCounter)
	s.ins.register()
	runnable := s.inner
	if opts.Audit {
		s.aud = audit.New(opts.Procs, s.inner, audit.OptionsForKind(opts.Scheduler, pol))
		runnable = s.aud
	}
	obs := &sim.Observer{
		OnStart:    func(now int64, j *job.Job) { s.ctr.onStart(now, j) },
		OnSuspend:  func(now int64, j *job.Job) { s.ctr.onSuspend(now, j) },
		OnComplete: func(now int64, j *job.Job) { s.ctr.onComplete(now, j, opts.Thresholds) },
	}
	s.sess, err = sim.Open(sim.Machine{Procs: opts.Procs}, runnable, obs)
	if err != nil {
		return nil, err
	}
	// Delta publication (snapshot.go) patches the previous snapshot, the
	// first time an empty one, from the set of jobs each batch touched;
	// tracking must be on before any job exists so no lineage misses one.
	s.sess.TrackTouched()
	s.snap.Store(new(Snapshot))
	s.pubDirty = true
	if opts.Follower != "" {
		// The journal directory, if any, belongs to the leader (or is this
		// follower's promotion target); a follower never opens it.
		s.followerMode.Store(true)
	} else if opts.Durability.Dir != "" {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	s.publish()
	return s, nil
}

// Preload submits a whole workload (an SWF trace or a synthetic model)
// before the loop starts; arrivals fire as virtual time reaches them.
// Valid only before Run.
func (s *Server) Preload(jobs []*job.Job) error {
	if s.followerMode.Load() {
		return s.followerWriteError("preload")
	}
	for _, j := range jobs {
		if err := s.sess.Submit(j); err != nil {
			return err
		}
		s.note(wal.Record{Op: wal.OpSubmit, Job: jobRecOf(j)})
		s.ctr.submitted++
		s.bumpNextID(j.ID)
	}
	if err := s.commitWAL(); err != nil {
		return err
	}
	s.publish()
	return nil
}

// vnow is the server's current virtual time: the wall-clock mapping in
// timed modes, the session's own clock when running as fast as possible
// and once a drain has begun, which fast-forwards the session past the
// wall clock — where a recovery of its journal stands too. Only the lock's
// holder calls it.
func (s *Server) vnow() int64 {
	if s.clock == nil || s.clock.Max() || s.drained {
		return s.sess.Now()
	}
	return s.clock.Now(time.Now())
}

// advance processes every event due by the current virtual instant (all of
// them in as-fast-as-possible mode, publishing snapshots along the way so
// readers watch the replay progress).
func (s *Server) advance() error {
	if s.clock == nil {
		// Before Run there is no clock (tests and tools drive the loop's
		// paths synchronously); deliver everything due at the current
		// instant so a submission's arrival is still processed in place.
		return s.sess.AdvanceTo(s.sess.Now())
	}
	if s.clock.Max() {
		return s.stepAll()
	}
	return s.sess.AdvanceTo(s.clock.Now(time.Now()))
}

// stepAll steps the session until no event is left, publishing every
// publishStride steps so readers watch the progress.
func (s *Server) stepAll() error {
	for i := 1; ; i++ {
		ok, err := s.sess.Step()
		if err != nil || !ok {
			return err
		}
		if i%publishStride == 0 {
			s.publish()
		}
	}
}

// settle is what follows every batch, on the loop and on a combining
// writer alike: deliver the events due by now, journal and commit them,
// take in a checkpoint write that has landed and start one that is due,
// and publish.
func (s *Server) settle() error {
	if err := s.advance(); err != nil {
		return err
	}
	s.noteAdvance()
	if err := s.commitWAL(); err != nil {
		return err
	}
	if err := s.maybeCheckpoint(); err != nil {
		return err
	}
	s.publish()
	return nil
}

// Run drives the scheduler loop until ctx is cancelled, then drains:
// submissions stop, the remaining schedule fast-forwards to completion,
// and the end-of-run invariants (no deadlock, clean audit) are checked.
// The returned error is nil for a clean drain. The loop holds s.mu except
// while parked; a writer that takes the lock meanwhile runs its own batch
// (exec) and wakes the loop when its timer needs it, and a checkpoint
// write wakes it when it lands.
func (s *Server) Run(ctx context.Context) error {
	if s.followerMode.Load() {
		// A follower has no scheduler loop of its own — its state advances
		// only through ApplyFramed, until Promote lifts the fence.
		return fmt.Errorf("serve: follower replica of %s: Run is valid only after Promote", s.opts.Follower)
	}
	defer close(s.stopped)
	s.mu.Lock()
	defer func() { s.live = false; s.mu.Unlock() }()
	if s.clock == nil {
		// Virtual time starts at the first pending arrival (replay) or 0
		// (live service) — except after a recovery that replayed a clock
		// advance, which resumes exactly where the crashed process stood
		// instead of jumping ahead to the next pending completion.
		base := int64(0)
		if t, ok := s.sess.NextEventTime(); ok {
			base = t
		}
		if s.replayedAdvance {
			base = s.sess.Now()
		}
		s.clock = NewClock(base, s.opts.Speed, time.Now())
	}
	s.live = true
	// One timer for the loop's life. A fire nobody selected on leaves its
	// tick in the channel, so it is stopped and drained before each Reset.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		if err := s.settle(); err != nil {
			return err
		}
		var timerC <-chan time.Time
		s.armed = math.MaxInt64
		if t, ok := s.sess.NextEventTime(); ok && !s.clock.Max() {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(s.clock.WallUntil(t, time.Now()))
			timerC, s.armed = timer.C, t
		}
		s.mu.Unlock()
		var c *command
		done := false
		select {
		case c = <-s.cmds:
		case <-s.wake:
		case <-timerC:
		case <-ctx.Done():
			done = true
		}
		s.mu.Lock()
		switch {
		case s.failed != nil:
			return s.failed
		case done:
			return s.drain()
		case c != nil:
			if err := s.runBatch(c); err != nil {
				return err
			}
		}
	}
}

// combine runs c's batch on the writer's goroutine when the lock is free
// and the loop live (inline), and reports whether it did.
func (s *Server) combine(c *command) bool {
	if !s.mu.TryLock() {
		return false
	}
	defer s.mu.Unlock()
	if !s.live {
		return false
	}
	s.inline(c)
	return true
}

// inline runs c's batch, then settles as the loop would; the caller holds
// s.mu and found the loop live. It starts a checkpoint the batch made due
// itself, in settle, and wakes the parked loop when an event is now due
// before the loop's timer and when the batch failed. A failure stops the
// daemon: a commit error, as it does on the loop, and a panic (the engines
// panic on a broken invariant), which on the loop would crash the process. No later batch runs or
// commits, and once Run returns the error the writers not yet acknowledged
// get ErrStopped.
func (s *Server) inline(c *command) {
	s.ins.batchInline.Add(1)
	wake := true
	defer func() {
		if r := recover(); r != nil {
			s.failed = fmt.Errorf("serve: write batch panicked: %v\n%s", r, debug.Stack())
		}
		if s.failed != nil {
			s.live = false
		}
		if wake {
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}()
	err := s.runBatch(c)
	if err == nil {
		err = s.settle()
	}
	if err != nil {
		s.failed = err
		return
	}
	t, ok := s.sess.NextEventTime()
	wake = ok && t < s.armed
}

// runBatch executes first plus every command already waiting in the
// mailbox, commits the batch's journal records with one write (the group
// commit), publishes one snapshot for the whole batch, and only then
// releases the waiting handlers — so each handler reads a snapshot that
// includes its own write, a burst of N submissions costs one snapshot
// rebuild and at most one forecast dry-run instead of N, and nothing is
// acknowledged before it is durable. With Durability.AckQuorum the release
// is additionally held until K live followers confirm the batch's max seq
// (see waitAckQuorum) — synchronous replication riding the same group
// commit. A commit failure leaves the done-channels unsignalled and stops
// the daemon; the waiting handlers observe ErrStopped instead of a false
// acknowledgement. The caller holds s.mu: the loop, or a combining writer.
func (s *Server) runBatch(first *command) error {
	s.batch = append(s.batch[:0], first)
	for {
		select {
		case c := <-s.cmds:
			s.batch = append(s.batch, c)
			continue
		default:
		}
		break
	}
	t := time.Now()
	lap := func(c *instr.Counter) { now := time.Now(); c.Add(int64(now.Sub(t))); t = now }
	for _, c := range s.batch {
		s.ins.batchWait.Add(int64(t.Sub(c.sent)))
		if c.cancel {
			c.err = s.cancel(c.id)
		} else {
			c.id, c.err = s.submitJob(c.req)
		}
	}
	lap(s.ins.batchExec)
	pre := s.walSeq.Load()
	if err := s.commitWAL(); err != nil {
		return err
	}
	lap(s.ins.batchCommit)
	s.publish()
	lap(s.ins.batchPublish)
	var batchErr error
	if seq := s.walSeq.Load(); seq > pre {
		batchErr = s.waitAckQuorum(seq)
	}
	lap(s.ins.batchQuorum)
	s.ins.batches.Add(1)
	for i, c := range s.batch {
		c.err = cmp.Or(batchErr, c.err)
		c.done <- struct{}{}
		s.batch[i] = nil // the waiter owns c from here
	}
	return nil
}

// waitAckQuorum holds the current commit batch until Durability.AckQuorum
// live followers have confirmed seq through the /v1/wal ack channel. On
// timeout it either degrades to the leader's own ack (QuorumDegrade, the
// availability choice) or returns ErrQuorum so every write in the batch
// fails with 503 (the consistency choice). Liveness is re-validated at
// this moment, not at registration: followers that died or went silent
// since their last poll never count (see followerRegistry.liveAckedLocked).
func (s *Server) waitAckQuorum(seq uint64) error {
	k := s.opts.Durability.AckQuorum
	if k <= 0 || s.log == nil {
		return nil
	}
	if s.flw.waitQuorum(seq, k, s.opts.Durability.QuorumTimeout) {
		return nil
	}
	if s.opts.Durability.QuorumDegrade {
		n := s.ins.quorumDegraded.Add(1)
		logger.Warn("ack quorum not reached, degrading to leader ack",
			"quorum", k, "seq", seq, "waited", s.opts.Durability.QuorumTimeout, "degrade", n)
		return nil
	}
	s.ins.quorumRejected.Add(1)
	return &clientError{code: http.StatusServiceUnavailable, err: fmt.Errorf(
		"%w: %d follower(s) required, seq %d, waited %s", ErrQuorum, k, seq, s.opts.Durability.QuorumTimeout)}
}

// drain fast-forwards the session to completion and verifies the close-out
// invariants. Mirrors what SIGTERM means to a real batch daemon: stop
// admissions, let running and queued work finish, then exit. Snapshots keep
// flowing throughout, so /healthz and /metrics stay green for the whole
// drain (and beyond — the last snapshot outlives the loop).
func (s *Server) drain() error {
	s.drained = true
	// Journal the drain before fast-forwarding: a crash mid-drain replays
	// the fast-forward and recovers to the drained terminal state.
	s.note(wal.Record{Op: wal.OpDrain})
	if err := s.commitWAL(); err != nil {
		return err
	}
	s.pubDirty = true // the draining flag itself is an observable change
	s.publish()
	if err := s.stepAll(); err != nil {
		return err
	}
	s.publish()
	if _, err := s.sess.Finish(); err != nil {
		return err
	}
	if s.aud != nil {
		if err := s.aud.Err(); err != nil {
			return err
		}
	}
	// A parting checkpoint makes the next boot instant: recovery reads the
	// drained state straight from the checkpoint instead of replaying the
	// whole journal.
	if s.log != nil {
		if err := s.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// exec runs cmd in a pooled command and returns its ID and error once the
// batch containing it has executed and its snapshot is published: a batch
// the caller runs itself when the lock is free (combine), or else one the
// loop runs from the mailbox, which it always selects on. A strict-mode
// quorum miss means cmd DID run — the batch committed on the leader but
// was not confirmed by enough followers. It fails with ErrStopped when the
// batch's commit failed, or once the loop has exited (or never picks the
// command up because a drain is in progress); the command, which the
// stopped daemon may still hold, is then never reused.
func (s *Server) exec(cmd command) (int, error) {
	c := commands.Get().(*command)
	cmd.sent, cmd.done = time.Now(), c.done
	*c = cmd
	if !s.combine(c) {
		select {
		case s.cmds <- c:
		case <-s.stopped:
			return 0, ErrStopped
		}
	}
	select {
	case <-c.done:
		id, err := c.id, c.err
		*c = command{done: c.done}
		commands.Put(c)
		return id, err
	case <-s.stopped:
		return 0, ErrStopped
	}
}

// appendNotify returns a channel closed at the next journal append. Used
// by /v1/wal long-polls; safe from any goroutine.
func (s *Server) appendNotify() <-chan struct{} {
	for {
		if p := s.walNotify.Load(); p != nil {
			return *p
		}
		ch := make(chan struct{})
		if s.walNotify.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// submitJob creates and enqueues a job arriving at the current virtual
// instant and advances the session so the arrival is delivered. It returns
// the new job's ID; the handler renders the response from the snapshot
// published after the batch, which is guaranteed to include this job.
func (s *Server) submitJob(req SubmitRequest) (int, error) {
	if s.drained {
		return 0, ErrStopped
	}
	if req.Estimate == 0 {
		req.Estimate = req.Runtime
	}
	j := &job.Job{
		ID:       s.nextID,
		Arrival:  s.vnow(),
		Runtime:  req.Runtime,
		Estimate: req.Estimate,
		Width:    req.Width,
		User:     req.User,
	}
	if err := s.sess.Submit(j); err != nil {
		s.ctr.rejected++
		s.pubDirty = true // visible in /metrics even though the session is unchanged
		return 0, &clientError{code: 400, err: err}
	}
	s.nextID += s.opts.IDStride
	s.ctr.submitted++
	s.note(wal.Record{Op: wal.OpSubmit, Job: jobRecOf(j)})
	// Deliver the arrival immediately so the response reflects the job's
	// real fate at this instant (running already, or queued with a
	// forecast).
	if err := s.advance(); err != nil {
		return 0, err
	}
	s.noteAdvance()
	return j.ID, nil
}

// bumpNextID moves nextID past id while staying in the server's ID
// congruence class (nextID ≡ IDStart mod IDStride, an invariant every
// caller preserves). Preloaded traces and journal replay carry IDs from
// outside the class, so the next live assignment must clear them.
func (s *Server) bumpNextID(id int) {
	if id < s.nextID {
		return
	}
	stride := s.opts.IDStride
	s.nextID += ((id-s.nextID)/stride + 1) * stride
}

// cancel withdraws a job that has not started.
func (s *Server) cancel(id int) error {
	if _, ok := s.sess.Info(id); !ok {
		return &clientError{code: 404, err: fmt.Errorf("serve: unknown job %d", id)}
	}
	if !s.sess.Cancel(id) {
		return &clientError{code: 409, err: fmt.Errorf("serve: job %d is not cancellable (already started or finished)", id)}
	}
	s.ctr.cancelled++
	s.note(wal.Record{Op: wal.OpCancel, ID: id})
	return nil
}

// clientError carries an HTTP status for request-level failures.
type clientError struct {
	code int
	err  error
}

func (e *clientError) Error() string { return e.err.Error() }
func (e *clientError) Unwrap() error { return e.err }
