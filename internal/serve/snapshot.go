package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Snapshot is one immutable view of the whole service state, built by the
// holder of Server.mu after it finishes a step or a command batch and
// published through an atomic pointer. Read endpoints render from the
// latest snapshot and never take that lock, so read throughput is
// bounded by rendering cost, not by scheduler-loop latency — and reads
// keep working while the daemon drains or after it has stopped.
//
// Everything reachable from a Snapshot is immutable once published: job
// views are value copies, slices are never written again (FQueued may share
// its array with its neighbours in the lineage, each capped at its own
// length: see publishedQueue), the job index shares nodes with older
// snapshots (see JobIndex), and the *job.Job pointers shared with the
// engine point at structs the engine treats as read-only after submission.
type Snapshot struct {
	// Version increases by exactly one per publication; readers use it to
	// detect state changes (and the forecast chain is ordered by it).
	Version uint64
	// Now is the service's virtual time when the snapshot was taken (the
	// wall-clock mapping in timed modes, the engine clock otherwise).
	Now int64
	// SimNow is the engine's last processed instant: the origin the
	// forecast dry-run plans from, which never runs ahead of the events.
	SimNow int64
	// Draining is set once the daemon has begun its graceful drain.
	Draining bool

	Scheduler string
	Procs     int
	ProcsBusy int
	Pending   int

	// Running holds the dispatched jobs in job-ID order; Jobs indexes every
	// submitted job by ID, the waiting ones included (FQueued orders them:
	// eachQueued). None of the views carry forecasts — predictions are
	// attached at render time from the memoized forecast for this version.
	Running []JobView
	Jobs    JobIndex
	runGen  uint64 // the session's RunningGen when Running was built

	// Counter values at publication time.
	Submitted, Started, Resumed, Completed, Cancelled, Rejected int64
	Utilization                                                 float64
	// BusyArea is ∫ procs-in-use dt (processor·seconds of virtual time)
	// integrated up to BusyUpTo — the raw terms behind Utilization, carried
	// so a federation can merge utilizations exactly instead of averaging
	// already-divided fractions.
	BusyArea, BusyUpTo int64
	// AuditViolations is -1 when the audit wrapper is off.
	AuditViolations int64
	CatSum          [job.NumCategories]float64
	CatN            [job.NumCategories]int64

	// Forecast inputs: the dry-run over these fields reproduces exactly
	// what the scheduler itself would have computed at this state
	// version.
	FQueued  []*job.Job
	FRunning []sched.RunningSlot
	Resv     map[int]int64

	// fc is the forecast over those inputs, computed on first use
	// (forecastFor); qbody and mbody are the /v1/queue and /metrics bodies,
	// rendered on first read (memo). Everything derived from a version lives
	// in its snapshot and goes with it.
	fc           forecastSlot
	qbody, mbody atomic.Pointer[bodyCell]
}

// JobIndex is a persistent map from job ID to rendered view (see trie). A
// session accumulates every job it has ever seen, so each publication
// derives its index from its predecessor's: it re-renders the jobs the
// batch touched and copies the few nodes on the paths to them, so deriving
// costs O(touched · log₃₂ max ID) in time and in bytes whatever the length
// of the history, and every older snapshot keeps reading its own contents.
// Jobs are never deleted from a session. A nil *JobIndex behaves as empty.
type JobIndex struct{ views trie[*JobView] }

// Get returns the view for one job ID.
func (x *JobIndex) Get(id int) (JobView, bool) {
	if x != nil {
		if v, ok := x.views.get(id); ok {
			return *v, true
		}
	}
	return JobView{}, false
}

// Len reports how many jobs the index holds.
func (x *JobIndex) Len() int {
	if x == nil {
		return 0
	}
	return x.views.n
}

// Range calls fn for every (id, view) pair in ascending ID order until fn
// returns false.
func (x *JobIndex) Range(fn func(id int, v JobView) bool) {
	if x != nil {
		x.views.ascend(func(id int, v *JobView) bool { return fn(id, *v) })
	}
}

// deltaSnapshot assembles a Snapshot by patching prev: only the jobs the
// session touched since prev was built are re-rendered, into an index
// forked from prev's. The queue is extended in place when the batch only
// appended to it and copied otherwise (publishedQueue); nothing in a
// publication is proportional to the jobs the session has ever seen
// (PERFORMANCE.md §6). Only the lock's holder may call it, and only on
// the publication path: it drains the session's touched set.
func (s *Server) deltaSnapshot(prev *Snapshot) *Snapshot {
	jobs := prev.Jobs
	if s.touched = s.sess.DrainTouched(s.touched[:0]); len(s.touched) > 0 {
		jobs.views = prev.Jobs.views.fork()
		for _, id := range s.touched {
			if info, ok := s.sess.Info(id); ok {
				jobs.views.set(id, makeView(info, s.opts.Thresholds))
			}
		}
		s.ins.jobsPatched.Add(int64(len(s.touched)))
		s.ins.nodesCopied.Add(int64(jobs.views.copied))
	}
	return s.assembleSnapshot(&jobs, prev)
}

// assembleSnapshot builds the snapshot around a ready job index: scalars
// and counters, the queue in policy order, the running set (prev's, if not
// nil, while the session's RunningGen holds), and the forecast inputs.
// Shared with the tests' full rebuild so the two are field-for-field equal.
func (s *Server) assembleSnapshot(jobs *JobIndex, prev *Snapshot) *Snapshot {
	now := s.vnow()
	queued := s.publishedQueue()
	resumed := int64(s.sess.Resumes())
	snap := &Snapshot{
		Version:         s.pub,
		Now:             now,
		SimNow:          s.sess.Now(),
		Draining:        s.drained,
		Scheduler:       s.name,
		Procs:           s.opts.Procs,
		ProcsBusy:       s.ctr.inUse,
		Pending:         s.sess.Pending(),
		Submitted:       s.ctr.submitted,
		Started:         s.ctr.dispatches - resumed,
		Resumed:         resumed,
		Completed:       s.ctr.completed,
		Cancelled:       s.ctr.cancelled,
		Rejected:        s.ctr.rejected,
		Utilization:     s.ctr.utilization(now, s.opts.Procs),
		BusyArea:        s.ctr.busyArea, // utilization() above integrated to now
		BusyUpTo:        s.ctr.lastT,
		AuditViolations: -1,
		CatSum:          s.ctr.catSum,
		CatN:            s.ctr.catN,
		Jobs:            *jobs,
		runGen:          s.sess.RunningGen(),
		FQueued:         queued,
		Resv:            sched.Reservations(s.inner, queued),
	}
	if s.aud != nil {
		snap.AuditViolations = int64(s.aud.ViolationCount())
	}
	if prev != nil && prev.runGen == snap.runGen {
		// No job started, resumed, stopped or finished, so every running
		// job's view and estimated end are what prev holds.
		snap.Running, snap.FRunning = prev.Running, prev.FRunning
		return snap
	}
	running := s.sess.Running()
	if len(running) > 0 {
		snap.Running = make([]JobView, 0, len(running))
		snap.FRunning = make([]sched.RunningSlot, 0, len(running))
	}
	for _, r := range running {
		// A start, suspension or resumption touches the job, so the index
		// already holds the view this publication would render.
		if v, ok := jobs.views.get(r.Job.ID); ok {
			snap.Running = append(snap.Running, *v)
		}
		snap.FRunning = append(snap.FRunning, sched.RunningSlot{Width: r.Job.Width, EstEnd: r.EstEnd})
	}
	return snap
}

// publishedQueue returns the queue a publication carries as FQueued, in the
// scheduler's order and capped at its length (len == cap). When the
// scheduler lends its live queue and that queue starts with the last
// published one — pointer for pointer, as when a batch only appended — the
// new jobs are appended in place behind it through s.fqueued, the one handle
// that may append: every earlier publication is capped at or below its
// length, so none sees the slots written. Anything else (a start, a
// cancellation, a reorder) is copied into a fresh array, as QueuedJobs
// would; a scheduler that does not lend hands over its copy. Either copy
// counts in publish_queue_copies. Only the lock's holder may call it.
func (s *Server) publishedQueue() []*job.Job {
	live, lent := s.sess.LentQueue()
	if !lent {
		s.ins.queueCopies.Add(1)
		return slices.Clip(live)
	}
	if n := len(s.fqueued); len(live) >= n && slices.Equal(live[:n], s.fqueued) {
		s.fqueued = append(s.fqueued, live[n:]...)
	} else {
		s.ins.queueCopies.Add(1)
		s.fqueued = append([]*job.Job(nil), live...)
	}
	return slices.Clip(s.fqueued)
}

// QueueDepth reports how many jobs are waiting without rendering them.
func (s *Snapshot) QueueDepth() int { return len(s.FQueued) }

// publish makes the current state visible to the lock-free read path. It
// is a no-op when nothing a client could observe has changed since the
// last publication, so a scheduler wakeup that processed no events costs
// one integer comparison. Otherwise it patches the previous snapshot
// (deltaSnapshot) rather than rebuilding from every job the session has
// ever seen, or the empty one New stores. Only the lock's holder may call
// it.
func (s *Server) publish() {
	if s.passer != nil {
		for k, c := range s.passer.WorkCounts().Named() {
			s.ins.work[k].Set(c.N)
		}
	}
	sv := s.sess.Version()
	if sv == s.pubSessVersion && !s.pubDirty {
		return
	}
	snap := s.deltaSnapshot(s.snap.Load())
	s.pub++
	snap.Version = s.pub
	s.snap.Store(snap)
	s.pubSessVersion = sv
	s.pubDirty = false
}

// forecastSlot memoizes the start-time forecast of the snapshot it sits in
// (Snapshot.fc). once gives concurrent readers of the version single-flight
// semantics: exactly one runs the dry-run, the rest wait in Do, and every
// later reader finds pred filled in.
//
// Beyond the memo, forecasted snapshots form an incremental chain
// (PERFORMANCE.md §6) whose head is the newest one whose forecast is done
// (Server.fcHead): the head keeps the dry-run's end state (seed), and the
// forecast for a later version extends that schedule with just the new
// arrivals — instead of re-running the dry-run over the whole queue —
// whenever the state delta is arrivals appended after everything already
// placed, which is exactly the shape every write batch has in a deep-queue
// regime. The seed's profile is mutated by the extension, so the successor
// takes it through an atomic Swap: consumed at most once, and a loser falls
// back to the full dry-run. pred is written before the snapshot becomes the
// head and read only after Do returns or from the head.
type forecastSlot struct {
	once sync.Once
	pred forecastPred
	seed atomic.Pointer[sched.ForecastSeed]
}

// forecastPred is the forecast counterpart of JobIndex: a persistent map
// from job ID to predicted start. Cloning the whole prediction map per
// version would reintroduce the O(queue) per-batch term the incremental
// chain exists to remove, so each extension derives a version holding the
// new placements over its predecessor's nodes. A nil *forecastPred is a
// valid empty forecast.
type forecastPred = trie[int64]

// fcOutcome is how one forecast was obtained: by extending its predecessor's
// dry-run, or by a full dry-run for one of the reasons extendForecast and
// forecastFor distinguish. GET /v1/debug/stats counts each.
type fcOutcome int

const (
	fcExtended fcOutcome = iota
	fcNoPredecessor
	fcClockMoved
	fcRunningChanged
	fcQueueNotPrefix
	fcResvChanged
	fcSeedConsumed
	fcArrivalBeforeTail
	fcStaleSnapshot
	numFcOutcomes
)

// passCounter is a scheduler that counts its work, passes by kind first,
// as every scheduler with a pass memo does.
type passCounter interface{ WorkCounts() sched.WorkCounts }

// forecastFor returns the start-time forecast for snap's state, running the
// conservative dry-run (or its incremental extension) at most once per
// snapshot no matter how many clients poll. Safe to call from any
// goroutine.
func (s *Server) forecastFor(snap *Snapshot) *forecastPred {
	if len(snap.FQueued) == 0 {
		return nil
	}
	snap.fc.once.Do(func() { s.fillForecast(snap) })
	return &snap.fc.pred
}

// fillForecast computes snap's forecast into its slot, extending the chain
// head's retained dry-run when the state delta permits and falling back to
// the full dry-run otherwise, and then makes snap the head. A reader
// holding a snapshot older than the head gets the full dry-run and leaves
// the chain alone: the head never moves back, and no seed is kept where
// nothing will extend it.
func (s *Server) fillForecast(snap *Snapshot) {
	head := s.fcHead.Load()
	if head != nil && head.Version > snap.Version {
		s.ins.fc[fcStaleSnapshot].Add(1)
		s.fullForecast(snap, &snap.fc.pred)
		return
	}
	seed, how := s.extendForecast(head, snap, &snap.fc.pred)
	s.ins.fc[how].Add(1)
	if how != fcExtended {
		snap.fc.pred = forecastPred{}
		seed = s.fullForecast(snap, &snap.fc.pred)
	}
	snap.fc.seed.Store(seed)
	for !s.fcHead.CompareAndSwap(head, snap) {
		if head = s.fcHead.Load(); head.Version > snap.Version {
			snap.fc.seed.Store(nil) // a newer version headed the chain first
			return
		}
	}
	if head != nil {
		head.fc.seed.Store(nil) // superseded, when snap did not consume it
	}
}

// fullForecast runs the full dry-run over the snapshot's captured inputs,
// each placement set straight into the empty prediction index pred, and
// times it.
func (s *Server) fullForecast(snap *Snapshot, pred *forecastPred) *sched.ForecastSeed {
	t0 := time.Now()
	seed := sched.ForecastFromStateSeeded(snap.Procs, snap.SimNow, snap.FRunning, snap.FQueued, s.pol, snap.Resv, pred.set)
	s.ins.fullForecast.Observe(time.Since(t0))
	return seed
}

// extendForecast tries to derive snap's forecast into pred by extending
// that of prev, the chain's head. The extension is sound only when prev's
// placements are provably unchanged: same dry-run origin instant, same
// running set, prev's queue a pointer prefix of snap's (a completion,
// cancellation, or reorder breaks this), reservations unchanged for every
// job prev placed, and the seed still unconsumed. Anything else returns the reason, pred holding nothing
// of use, and the caller re-runs the dry-run from scratch.
func (s *Server) extendForecast(prev, snap *Snapshot, pred *forecastPred) (*sched.ForecastSeed, fcOutcome) {
	if prev == nil || prev.Version >= snap.Version {
		return nil, fcNoPredecessor
	}
	if snap.SimNow != prev.SimNow {
		return nil, fcClockMoved
	}
	if !slices.Equal(snap.FRunning, prev.FRunning) {
		return nil, fcRunningChanged
	}
	if len(snap.FQueued) < len(prev.FQueued) || !slices.Equal(snap.FQueued[:len(prev.FQueued)], prev.FQueued) {
		return nil, fcQueueNotPrefix
	}
	newJobs := snap.FQueued[len(prev.FQueued):]
	if !resvCompatible(prev.Resv, snap.Resv, newJobs) {
		return nil, fcResvChanged
	}
	seed := prev.fc.seed.Swap(nil)
	if seed == nil {
		return nil, fcSeedConsumed
	}
	*pred = prev.fc.pred.fork()
	if !sched.ExtendForecast(seed, snap.SimNow, newJobs, s.pol, snap.Resv, pred.set) {
		// The arrivals sort mid-queue; the seed was not touched, so hand it
		// back for a later successor whose delta does qualify.
		prev.fc.seed.Store(seed)
		return nil, fcArrivalBeforeTail
	}
	return seed, fcExtended
}

// resvCompatible reports whether the reservations a previous forecast
// applied are unchanged for every job it placed. Entries for the new
// arrivals are fine — the extension applies them — but a changed or
// vanished reservation on an already-placed job would make the patched map
// diverge from a full recompute.
func resvCompatible(old, cur map[int]int64, newJobs []*job.Job) bool {
	if len(old) == 0 && len(cur) == 0 {
		return true
	}
	curNew := 0
	for _, j := range newJobs {
		if _, ok := cur[j.ID]; ok {
			curNew++
		}
	}
	if len(cur)-curNew != len(old) {
		return false
	}
	for id, t := range old {
		if ct, ok := cur[id]; !ok || ct != t {
			return false
		}
	}
	return true
}

// DryRuns reports how many forecasts the server has computed, by extension
// or in full — the stress test asserts that polling an unchanged state
// version does not add any.
func (s *Server) DryRuns() (n int64) {
	for _, c := range s.ins.fc {
		n += c.Load()
	}
	return n
}

// Current returns the latest published snapshot. A server always has one:
// New publishes the initial empty state before returning.
func (s *Server) Current() *Snapshot { return s.snap.Load() }

// bodyCell is one response body of one snapshot version (Snapshot.qbody,
// mbody). once single-flights its render, as forecastSlot's does.
type bodyCell struct {
	once sync.Once
	body []byte
}

// memo returns the body in slot, rendering it on the version's first read.
// The cell is installed by CAS, so concurrent first readers share one
// render, and a snapshot nobody reads pays for none.
func memo(slot *atomic.Pointer[bodyCell], render func() []byte) []byte {
	c := slot.Load()
	if c == nil {
		c = new(bodyCell)
		if !slot.CompareAndSwap(nil, c) {
			c = slot.Load()
		}
	}
	c.once.Do(func() { c.body = render() })
	return c.body
}

// queueBody returns the exact bytes GET /v1/queue writes for snap — what
// json.Marshal(queueResponse(snap, pol, pred)) writes plus the trailing
// newline json.Encoder appends, rendered by appendQueue straight from the
// snapshot — memoized in it. Safe to call from any goroutine.
func (s *Server) queueBody(snap *Snapshot) []byte {
	return memo(&snap.qbody, func() []byte {
		pred := s.forecastFor(snap)
		buf := renderBuf.Get().(*[]byte)
		defer renderBuf.Put(buf)
		b, ok := appendQueue((*buf)[:0], snap, s.pol, pred)
		*buf = b[:0]
		if ok {
			// The snapshot keeps the body for as long as it lives, so it is
			// cut to length; the scratch keeps its spare capacity.
			return append(append(make([]byte, 0, len(b)+1), b...), '\n')
		}
		body, err := json.Marshal(queueResponse(snap, s.pol, pred))
		if err != nil {
			// A QueueResponse is plain data; only a non-finite slowdown,
			// which makeView cannot produce, fails to marshal.
			panic("serve: marshal queue response: " + err.Error())
		}
		return append(body, '\n')
	})
}

// metricsBody returns the Prometheus exposition body for snap, memoized in
// it. The replication layer appends its own gauges after this body, so
// memoizing the serve half stays correct for replicas.
func metricsBody(snap *Snapshot) []byte {
	return memo(&snap.mbody, func() []byte {
		var buf bytes.Buffer
		WriteMetrics(&buf, snap)
		return buf.Bytes()
	})
}

// queueResponse renders GET /v1/queue from a snapshot plus its forecast as
// a value, the waiting jobs in pol's order (eachQueued).
func queueResponse(snap *Snapshot, pol sched.Policy, pred *forecastPred) QueueResponse {
	var queued []JobView // nil for an empty queue, which encodes as null
	if len(snap.FQueued) > 0 {
		queued = make([]JobView, 0, len(snap.FQueued))
	}
	eachQueued(snap, pol, pred, func(v JobView) bool {
		queued = append(queued, v)
		return true
	})
	return QueueResponse{
		Version:   snap.Version,
		Now:       snap.Now,
		Scheduler: snap.Scheduler,
		Procs:     snap.Procs,
		ProcsBusy: snap.ProcsBusy,
		Submitted: snap.Submitted,
		Pending:   snap.Pending,
		Queued:    queued,
		Running:   snap.Running,
		Completed: snap.Completed,
		Cancelled: snap.Cancelled,
	}
}

// jobResponse renders one job's view from a snapshot, attaching the
// memoized forecast when the job is still waiting: the predicted start is
// the forecast's own slot, so the reply allocates nothing for it.
func (s *Server) jobResponse(snap *Snapshot, id int) (JobView, bool) {
	v, ok := snap.Jobs.Get(id)
	if !ok {
		return JobView{}, false
	}
	if v.State == sim.StateQueued.String() || v.State == sim.StatePending.String() {
		v.PredictedStart = s.forecastFor(snap).at(id)
	}
	return v, true
}
