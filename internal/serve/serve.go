// Package serve turns the batch simulator into an online scheduling
// service: a long-running daemon that owns one incremental sim.Session,
// accepts job submissions and cancellations over HTTP while virtual time
// flows (real-time, N×-accelerated, or as-fast-as-possible), answers
// status queries with a predicted start time for queued jobs (the
// "showstart" feature of production batch systems), and exposes
// Prometheus metrics.
//
// Concurrency model: exactly one goroutine — the scheduler loop started by
// Run — touches the session, the scheduler, and the counters; that keeps
// the discrete-event core single-threaded (its determinism guarantee).
// Writes (submit, cancel) are closures sent through a mailbox channel; the
// loop drains the mailbox in batches, so a burst of submissions pays one
// snapshot rebuild, not one per request. Reads never enter the mailbox at
// all: after every step or command batch the loop publishes an immutable
// Snapshot through an atomic pointer, and GET /v1/queue, GET /v1/jobs/{id},
// /healthz and /metrics render from the latest snapshot on the HTTP
// goroutines. Start-time forecasts are memoized per snapshot version with
// single-flight coalescing, so the conservative dry-run executes at most
// once per state change regardless of how many clients poll.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/audit"
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
// advance (or a drain) processes between snapshot publications: often
// enough that readers watch a replay progress, rarely enough that the
// rebuild cost stays a rounding error next to event processing.
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
	// (internal/replica) feeds it journal records through ApplyRecords and
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

// command is one mailbox entry: a closure for the scheduler goroutine plus
// the signal the submitting HTTP handler waits on. The loop closes done
// only after the batch containing the command has executed and the
// resulting snapshot is published, so a handler that proceeds to read the
// snapshot is guaranteed to see its own write. err, written before done is
// closed and read only after, carries a batch-level failure that must
// reach the handler without stopping the loop (a missed ack quorum in
// strict mode).
type command struct {
	fn   func()
	done chan struct{}
	err  error
}

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

	cmds    chan *command
	stopped chan struct{}
	nextID  int
	drained bool

	// Lock-free read path state. snap is written only by the scheduler
	// goroutine (and by New/Preload before it starts); fc, the body memos
	// and fcOutcomes (forecasts computed, by how: see fcOutcome) are shared
	// with HTTP goroutines. qbody and mbody cache
	// the marshaled /v1/queue and /metrics bodies per snapshot version
	// (single-flight, like fc), so polling an unchanged state costs a
	// buffer write instead of a fresh render.
	snap           atomic.Pointer[Snapshot]
	fc             atomic.Pointer[forecastEntry]
	qbody          bodyPtr
	mbody          bodyPtr
	fcOutcomes     [numFcOutcomes]atomic.Int64
	pub            uint64       // last published snapshot version
	pubSessVersion uint64       // session version the last snapshot was built from
	pubDirty       bool         // counter changed without a session mutation (e.g. a rejected submit)
	touched        []int        // deltaSnapshot's drain buffer, reused
	pubPatched     atomic.Int64 // job views re-rendered by publications
	pubNodes       atomic.Int64 // index nodes allocated to hold them
	batch          []*command

	// Durability state, owned by the scheduler goroutine (see durable.go).
	log             *wal.Log
	walRecs         []wal.Record // staged records of the in-flight commit batch
	walVer          uint64       // session version at the last staged record
	history         []wal.Record // coalesced full replay sequence (next checkpoint's ops)
	ckptAt          time.Time    // wall time of the last checkpoint (age trigger)
	ckptUnix        int64        // unix time of the last durable checkpoint (reporting)
	recovered       *RecoveryInfo
	replayedAdvance bool // recovery replayed a clock advance; resume there

	// Replication state (see replication.go). walSeq mirrors the last
	// durable journal seq for HTTP goroutines and walAppended the last
	// appended one, which runs ahead of it while a batch's fsync is in
	// flight; termPub the current leadership term; followerMode fences
	// writes on a replica; walDirPub the journal directory the /v1/wal
	// endpoint streams from; pullRecords / pullBytes count what /v1/wal
	// shipped and what its Tailers read from disk to ship it.
	walSeq       atomic.Uint64
	walAppended  atomic.Uint64
	termPub      atomic.Uint64
	followerMode atomic.Bool
	walDirPub    atomic.Pointer[string]
	flw          followerRegistry
	replResyncs  atomic.Int64
	pullRecords  atomic.Int64
	pullBytes    atomic.Int64

	// walNotify is closed and replaced on every journal append so /v1/wal
	// long-polls wake immediately instead of on their next poll tick — the
	// latency floor for follower catch-up and therefore for quorum acks.
	// quorumDegraded / quorumRejected count commit batches that missed the
	// follower ack quorum and were acknowledged anyway (degrade mode) or
	// refused with 503 (strict mode).
	walNotify      atomic.Pointer[chan struct{}]
	quorumDegraded atomic.Int64
	quorumRejected atomic.Int64
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
		ctr:   newCounters(),
		// The mailbox is buffered so a burst of writers parks in the channel
		// instead of rendezvousing one-by-one with the loop; runBatch then
		// drains the backlog into a single batch (one snapshot rebuild, one
		// forecast invalidation) regardless of how the goroutines interleave.
		cmds:    make(chan *command, 128),
		stopped: make(chan struct{}),
		nextID:  opts.IDStart,
	}
	s.name = s.inner.Name()
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
	// Delta publication (snapshot.go) patches the previous snapshot from
	// the set of jobs each batch touched; tracking must be on before the
	// first snapshot exists so no lineage ever misses a change.
	s.sess.TrackTouched()
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
// timed modes, the session's own clock when running as fast as possible.
// Only the scheduler goroutine calls it.
func (s *Server) vnow() int64 {
	if s.clock == nil || s.clock.Max() {
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
		for i := 1; ; i++ {
			ok, err := s.sess.Step()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if i%publishStride == 0 {
				s.publish()
			}
		}
	}
	return s.sess.AdvanceTo(s.clock.Now(time.Now()))
}

// Run drives the scheduler loop until ctx is cancelled, then drains:
// submissions stop, the remaining schedule fast-forwards to completion,
// and the end-of-run invariants (no deadlock, clean audit) are checked.
// The returned error is nil for a clean drain.
func (s *Server) Run(ctx context.Context) error {
	if s.followerMode.Load() {
		// A follower has no scheduler loop of its own — its state advances
		// only through ApplyRecords, until Promote lifts the fence.
		return fmt.Errorf("serve: follower replica of %s: Run is valid only after Promote", s.opts.Follower)
	}
	defer close(s.stopped)
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
	for {
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
		var timer *time.Timer
		var timerC <-chan time.Time
		if t, ok := s.sess.NextEventTime(); ok && !s.clock.Max() {
			timer = time.NewTimer(s.clock.WallUntil(t, time.Now()))
			timerC = timer.C
		}
		select {
		case c := <-s.cmds:
			if err := s.runBatch(c); err != nil {
				return err
			}
		case <-timerC:
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return s.drain()
		}
		if timer != nil {
			timer.Stop()
		}
	}
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
// commit. A commit failure leaves the done-channels unclosed and stops the
// loop; the waiting handlers observe ErrStopped instead of a false
// acknowledgement.
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
	for _, c := range s.batch {
		c.fn()
	}
	pre := s.walSeq.Load()
	if err := s.commitWAL(); err != nil {
		return err
	}
	s.publish()
	var batchErr error
	if seq := s.walSeq.Load(); seq > pre {
		batchErr = s.waitAckQuorum(seq)
	}
	for i, c := range s.batch {
		c.err = batchErr
		close(c.done)
		s.batch[i] = nil // drop the closure for the collector
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
		n := s.quorumDegraded.Add(1)
		logf("serve: ack quorum %d not reached for seq %d within %s — degrading to leader ack (degrade #%d)",
			k, seq, s.opts.Durability.QuorumTimeout, n)
		return nil
	}
	s.quorumRejected.Add(1)
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
	for i := 1; ; i++ {
		ok, err := s.sess.Step()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i%publishStride == 0 {
			s.publish()
		}
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

// exec runs fn on the scheduler goroutine and waits until the batch
// containing it has executed and its snapshot is published. It fails with
// ErrStopped once the loop has exited (or never picks the command up
// because a drain is in progress). A non-nil return other than ErrStopped
// (a strict-mode quorum miss) means fn DID run — the batch executed and
// committed on the leader but was not confirmed by enough followers.
func (s *Server) exec(fn func()) error {
	c := &command{fn: fn, done: make(chan struct{})}
	select {
	case s.cmds <- c:
	case <-s.stopped:
		return ErrStopped
	}
	select {
	case <-c.done:
		return c.err
	case <-s.stopped:
		return ErrStopped
	}
}

// appendNotify returns a channel closed at the next journal append. Used
// by /v1/wal long-polls; safe from any goroutine.
func (s *Server) appendNotify() <-chan struct{} {
	if p := s.walNotify.Load(); p != nil {
		return *p
	}
	ch := make(chan struct{})
	if s.walNotify.CompareAndSwap(nil, &ch) {
		return ch
	}
	return *s.walNotify.Load()
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
