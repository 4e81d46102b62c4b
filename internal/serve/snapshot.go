package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync/atomic"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// bodyPtr is the atomic slot a memoized response body lives in.
type bodyPtr = atomic.Pointer[bodyEntry]

// Snapshot is one immutable view of the whole service state, built by the
// scheduler goroutine after it finishes a step or a command batch and
// published through an atomic pointer. Read endpoints render from the
// latest snapshot and never enter the scheduler mailbox, so read throughput
// is bounded by rendering cost, not by scheduler-loop latency — and reads
// keep working while the daemon drains or after it has stopped.
//
// Everything reachable from a Snapshot is immutable once published: job
// views are value copies, slices are freshly built per publication and
// never written again, the job index shares nodes with older snapshots
// (see JobIndex), and the *job.Job pointers shared with the
// engine point at structs the engine treats as read-only after submission.
type Snapshot struct {
	// Version increases by exactly one per publication; readers use it to
	// detect state changes (and the forecast cache keys on it).
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
	// submitted job by ID; QueuedViews renders the waiting jobs in policy
	// order. None of the views carry forecasts — predictions are attached at
	// render time from the memoized forecast for this version.
	Running []JobView
	Jobs    *JobIndex

	// queued caches the policy-ordered queued views, rendered on first use
	// (QueuedViews) rather than at publication: the write path publishes far
	// more snapshots than anyone renders the queue of, so the O(queue) view
	// build — one JobView copy per waiting job plus the policy sort — runs
	// off the scheduler goroutine, and only for versions whose views someone
	// asks for as values (Server.Queue, the federation's merge); the
	// /v1/queue body is encoded from the index without them (appendQueue)
	// and a depth count reads QueueDepth. pol is the policy both sort by. The
	// cell is the one mutable slot in a published snapshot; the CAS keeps it
	// write-once, so every reader of a version sees the same slice.
	queued atomic.Pointer[[]JobView]
	pol    sched.Policy

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
	// what the mailbox path would have computed on the scheduler goroutine
	// at this state version.
	FQueued  []*job.Job
	FRunning []sched.RunningSlot
	Resv     map[int]int64
}

// JobIndex is a persistent map from job ID to rendered view (see trie). A
// session accumulates every job it has ever seen, so each publication
// derives its index from its predecessor's: it re-renders the jobs the
// batch touched and copies the few nodes on the paths to them, so deriving
// costs O(touched · log₃₂ max ID) in time and in bytes whatever the length
// of the history, and every older snapshot keeps reading its own contents.
// Jobs are never deleted from a session. A nil *JobIndex behaves as empty.
type JobIndex struct{ views trie[*JobView] }

// NewJobIndex builds an index holding views. Used by the federation's
// merged snapshot.
func NewJobIndex(views map[int]JobView) *JobIndex {
	x := new(JobIndex)
	slab := make([]JobView, 0, len(views))
	for id, v := range views {
		slab = append(slab, v)
		x.views.set(id, &slab[len(slab)-1])
	}
	return x
}

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

// buildSnapshot assembles a Snapshot of the current session state by
// rendering every job from scratch. Only the scheduler goroutine may call
// it. The publish path prefers deltaSnapshot and falls back here only for
// the very first publication; the mailbox read path (the measured A/B
// baseline) calls it per read, building ephemeral snapshots that reuse the
// latest published version — and deliberately does NOT consume the
// touched-job set, which belongs to the publication lineage.
func (s *Server) buildSnapshot() *Snapshot {
	jobs := new(JobIndex)
	for _, info := range s.sess.Infos() {
		jobs.views.set(info.Job.ID, makeView(info, s.opts.Thresholds))
	}
	return s.assembleSnapshot(jobs)
}

// deltaSnapshot assembles a Snapshot by patching prev: only the jobs the
// session touched since prev was built are re-rendered, into an index
// forked from prev's. Everything proportional to the queue (policy order,
// forecast inputs) is rebuilt — the queue is what the snapshot is for — but
// nothing in a publication is proportional to the jobs the session has ever
// seen (PERFORMANCE.md §6). Only the scheduler goroutine may call it, and
// only on the publication path: it drains the session's touched set.
func (s *Server) deltaSnapshot(prev *Snapshot) *Snapshot {
	jobs := prev.Jobs
	if s.touched = s.sess.DrainTouched(s.touched[:0]); len(s.touched) > 0 {
		jobs = &JobIndex{views: prev.Jobs.views.fork()}
		for _, id := range s.touched {
			if info, ok := s.sess.Info(id); ok {
				jobs.views.set(id, makeView(info, s.opts.Thresholds))
			}
		}
		s.pubPatched.Add(int64(len(s.touched)))
		s.pubNodes.Add(int64(jobs.views.copied))
	}
	return s.assembleSnapshot(jobs)
}

// assembleSnapshot builds the snapshot around a ready job index: scalars
// and counters, the queue in policy order, the running set, and the
// forecast inputs. Shared by the full and delta paths so the two are
// field-for-field identical.
func (s *Server) assembleSnapshot(jobs *JobIndex) *Snapshot {
	now := s.vnow()
	queued := s.sess.Queued()
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
		Started:         s.ctr.started,
		Resumed:         s.ctr.resumed,
		Completed:       s.ctr.completed,
		Cancelled:       s.ctr.cancelled,
		Rejected:        s.ctr.rejected,
		Utilization:     s.ctr.utilization(now, s.opts.Procs),
		BusyArea:        s.ctr.busyArea, // utilization() above integrated to now
		BusyUpTo:        s.ctr.lastT,
		AuditViolations: -1,
		CatSum:          s.ctr.catSum,
		CatN:            s.ctr.catN,
		Jobs:            jobs,
		FQueued:         queued,
		Resv:            sched.Reservations(s.inner, queued),
		pol:             s.pol,
	}
	if s.aud != nil {
		snap.AuditViolations = int64(s.aud.ViolationCount())
	}
	running := s.sess.Running()
	snap.FRunning = make([]sched.RunningSlot, 0, len(running))
	if len(running) > 0 {
		snap.Running = make([]JobView, 0, len(running))
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

// QueuedViews returns the waiting jobs in policy order, rendering them on
// first use and caching the result for every later reader of this snapshot.
// Safe to call from any goroutine. Two concurrent first readers may both
// build the slice; they build identical content and the CAS keeps exactly
// one.
func (s *Snapshot) QueuedViews() []JobView {
	if p := s.queued.Load(); p != nil {
		return *p
	}
	var views []JobView
	for _, j := range sched.SortedByPolicy(s.FQueued, s.pol, s.SimNow) {
		if v, ok := s.Jobs.Get(j.ID); ok {
			views = append(views, v)
		}
	}
	if !s.queued.CompareAndSwap(nil, &views) {
		return *s.queued.Load()
	}
	return views
}

// QueueDepth reports how many jobs are waiting without rendering them: the
// views' count where they exist already (a merged snapshot is seeded with
// them and has no FQueued), the scheduler queue's length otherwise.
func (s *Snapshot) QueueDepth() int {
	if p := s.queued.Load(); p != nil {
		return len(*p)
	}
	return len(s.FQueued)
}

// SetQueuedViews installs pre-rendered queued views. The federation's
// merged snapshot is concatenated from shard views rather than rendered
// from an index, so it seeds the cache directly; call before the snapshot
// is shared.
func (s *Snapshot) SetQueuedViews(views []JobView) { s.queued.Store(&views) }

// publish makes the current state visible to the lock-free read path. It
// is a no-op when nothing a client could observe has changed since the
// last publication, so a scheduler wakeup that processed no events costs
// one integer comparison. Otherwise it patches the previous snapshot
// (deltaSnapshot) rather than rebuilding from every job the session has
// ever seen. Only the scheduler goroutine may call it.
func (s *Server) publish() {
	sv := s.sess.Version()
	prev := s.snap.Load()
	if prev != nil && sv == s.pubSessVersion && !s.pubDirty {
		return
	}
	var snap *Snapshot
	if prev != nil {
		snap = s.deltaSnapshot(prev)
	} else {
		snap = s.buildSnapshot()
	}
	s.pub++
	snap.Version = s.pub
	s.snap.Store(snap)
	s.pubSessVersion = sv
	s.pubDirty = false
}

// forecastEntry memoizes the start-time forecast for one snapshot version.
// ready is closed once the result fields are filled in, giving concurrent
// readers of the same version single-flight semantics: exactly one runs the
// dry-run, the rest wait on the channel.
//
// Beyond the memo, entries form an incremental chain (PERFORMANCE.md §6):
// each records the forecast inputs it was computed from plus the dry-run's
// end state (seed), and the computation for the next version extends that
// schedule with just the new arrivals — instead of re-running the dry-run
// over the whole queue — whenever the state delta is arrivals appended
// after everything already placed, which is exactly the shape every write
// batch has in a deep-queue regime. The seed's profile is mutated by the
// extension, so the successor takes it through an atomic Swap: consumed at
// most once, and a loser falls back to the full dry-run. All fields except
// seed are written before ready closes and read only after it closes.
type forecastEntry struct {
	version  uint64
	ready    chan struct{}
	pred     *forecastPred
	simNow   int64
	frunning []sched.RunningSlot
	fqueued  []*job.Job
	resv     map[int]int64
	seed     atomic.Pointer[sched.ForecastSeed]
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
// forecastFor distinguish. GET /v1/debug/forecast reports a count of each.
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

// fcFallbackNames are the JSON keys of the full dry-runs, by reason.
var fcFallbackNames = [numFcOutcomes]string{
	fcNoPredecessor:     "no_predecessor",
	fcClockMoved:        "clock_moved",
	fcRunningChanged:    "running_changed",
	fcQueueNotPrefix:    "queue_not_prefix",
	fcResvChanged:       "reservation_changed",
	fcSeedConsumed:      "seed_consumed",
	fcArrivalBeforeTail: "arrival_before_tail",
	fcStaleSnapshot:     "stale_snapshot",
}

// ForecastInfo is the GET /v1/debug/forecast payload: how this process has
// computed its start-time forecasts; DryRuns = Extends + every fallback. A
// submission that joins the end of the queue is an extension, one placement;
// a cancellation, start, completion or clock step costs the next reader one
// full dry-run (queue_not_prefix, running_changed, clock_moved), and so does
// a submission the policy sorts into the middle of the queue. Fallbacks
// that keep pace with those events are healthy; under FCFS, fallbacks that
// keep pace with submissions mean the chain is not engaging
// (OPERATIONS.md §4). Process-local, so not part of /metrics.
type ForecastInfo struct {
	DryRuns   int64            `json:"dry_runs"`
	Extends   int64            `json:"extends"`
	Fallbacks map[string]int64 `json:"fallbacks"`
}

// ForecastStats reports the forecast chain's counters.
func (s *Server) ForecastStats() ForecastInfo {
	info := ForecastInfo{DryRuns: s.DryRuns(), Extends: s.fcOutcomes[fcExtended].Load(), Fallbacks: make(map[string]int64, numFcOutcomes-1)}
	for o := fcExtended + 1; o < numFcOutcomes; o++ {
		info.Fallbacks[fcFallbackNames[o]] = s.fcOutcomes[o].Load()
	}
	return info
}

// forecastFor returns the start-time forecast for snap's state, running the
// conservative dry-run (or its incremental extension) at most once per
// snapshot version no matter how many clients poll. Safe to call from any
// goroutine.
func (s *Server) forecastFor(snap *Snapshot) *forecastPred {
	if len(snap.FQueued) == 0 {
		return nil
	}
	for {
		e := s.fc.Load()
		if e != nil && e.version == snap.Version {
			<-e.ready
			return e.pred
		}
		if e != nil && e.version > snap.Version {
			// A newer state is already cached. Don't regress the cache for
			// a reader holding an old snapshot, and don't disturb the
			// incremental chain; just compute its view.
			s.fcOutcomes[fcStaleSnapshot].Add(1)
			pred, _ := s.fullForecast(snap)
			return pred
		}
		ne := &forecastEntry{version: snap.Version, ready: make(chan struct{})}
		if s.fc.CompareAndSwap(e, ne) {
			s.fillForecast(e, ne, snap)
			close(ne.ready)
			return ne.pred
		}
	}
}

// fillForecast computes snap's forecast into ne, extending predecessor
// prev's retained dry-run when the state delta permits and falling back to
// the full dry-run otherwise. Either way it seeds ne so the chain continues.
func (s *Server) fillForecast(prev, ne *forecastEntry, snap *Snapshot) {
	ne.simNow = snap.SimNow
	ne.frunning = snap.FRunning
	ne.fqueued = snap.FQueued
	ne.resv = snap.Resv
	pred, seed, how := s.extendForecast(prev, snap)
	s.fcOutcomes[how].Add(1)
	if how != fcExtended {
		pred, seed = s.fullForecast(snap)
	}
	ne.pred = pred
	ne.seed.Store(seed)
}

// fullForecast runs the full dry-run over the snapshot's captured inputs,
// each placement set straight into the prediction index.
func (s *Server) fullForecast(snap *Snapshot) (*forecastPred, *sched.ForecastSeed) {
	pred := new(forecastPred)
	return pred, sched.ForecastFromStateSeeded(snap.Procs, snap.SimNow, snap.FRunning, snap.FQueued, s.pol, snap.Resv, pred.set)
}

// extendForecast tries to derive snap's forecast by extending prev's. The
// extension is sound only when prev's placements are provably unchanged:
// same dry-run origin instant, same running set, prev's queue a pointer
// prefix of snap's (a completion, cancellation, or reorder breaks this),
// reservations unchanged for every job prev placed, and the seed still
// unconsumed. Anything else returns the reason and the caller re-runs the
// dry-run from scratch.
func (s *Server) extendForecast(prev *forecastEntry, snap *Snapshot) (*forecastPred, *sched.ForecastSeed, fcOutcome) {
	if prev == nil || prev.version >= snap.Version {
		return nil, nil, fcNoPredecessor
	}
	<-prev.ready
	if snap.SimNow != prev.simNow {
		return nil, nil, fcClockMoved
	}
	if !slices.Equal(snap.FRunning, prev.frunning) {
		return nil, nil, fcRunningChanged
	}
	if len(snap.FQueued) < len(prev.fqueued) || !slices.Equal(snap.FQueued[:len(prev.fqueued)], prev.fqueued) {
		return nil, nil, fcQueueNotPrefix
	}
	newJobs := snap.FQueued[len(prev.fqueued):]
	if !resvCompatible(prev.resv, snap.Resv, newJobs) {
		return nil, nil, fcResvChanged
	}
	seed := prev.seed.Swap(nil)
	if seed == nil {
		return nil, nil, fcSeedConsumed
	}
	pred := prev.pred.fork()
	if !sched.ExtendForecast(seed, snap.SimNow, newJobs, s.pol, snap.Resv, pred.set) {
		// The arrivals sort mid-queue; the seed was not touched, so hand it
		// back for a later successor whose delta does qualify.
		prev.seed.Store(seed)
		return nil, nil, fcArrivalBeforeTail
	}
	return &pred, seed, fcExtended
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
	for o := range s.fcOutcomes {
		n += s.fcOutcomes[o].Load()
	}
	return n
}

// Current returns the latest published snapshot. A server always has one:
// New publishes the initial empty state before returning.
func (s *Server) Current() *Snapshot { return s.snap.Load() }

// bodyEntry memoizes one marshaled response body for one snapshot version —
// the forecastEntry pattern applied a layer up: once any reader has rendered
// /v1/queue or /metrics for a version, every other reader of that version
// writes the same cached bytes. ready is closed once body is filled in.
type bodyEntry struct {
	version uint64
	ready   chan struct{}
	body    []byte
}

// memoBody returns the cached body for snap's version from cache, rendering
// it at most once per version via render. The never-regress rule matches
// forecastFor: a reader holding an older snapshot than the cache renders
// privately instead of clobbering the newer entry.
func memoBody(cache *bodyPtr, snap *Snapshot, render func() []byte) []byte {
	for {
		e := cache.Load()
		if e != nil && e.version == snap.Version {
			<-e.ready
			return e.body
		}
		if e != nil && e.version > snap.Version {
			return render()
		}
		ne := &bodyEntry{version: snap.Version, ready: make(chan struct{})}
		if cache.CompareAndSwap(e, ne) {
			ne.body = render()
			close(ne.ready)
			return ne.body
		}
	}
}

// queueBody returns the exact bytes GET /v1/queue writes for snap — what
// json.Marshal(queueResponse(snap, pred)) writes plus the trailing newline
// json.Encoder appends, rendered by appendQueue straight from the snapshot
// — memoized per snapshot version. Safe to call from any goroutine.
func (s *Server) queueBody(snap *Snapshot) []byte {
	return memoBody(&s.qbody, snap, func() []byte {
		pred := s.forecastFor(snap)
		buf := renderBuf.Get().(*[]byte)
		defer renderBuf.Put(buf)
		b, ok := appendQueue((*buf)[:0], snap, pred)
		*buf = b[:0]
		if ok {
			// The memo keeps the body while its version is current, so it
			// is cut to length; the scratch keeps its spare capacity.
			return append(append(make([]byte, 0, len(b)+1), b...), '\n')
		}
		body, err := json.Marshal(queueResponse(snap, pred))
		if err != nil {
			// A QueueResponse is plain data; only a non-finite slowdown,
			// which makeView cannot produce, fails to marshal.
			panic("serve: marshal queue response: " + err.Error())
		}
		return append(body, '\n')
	})
}

// metricsBody returns the Prometheus exposition body for snap, memoized per
// snapshot version. The replication layer appends its own gauges after this
// body, so memoizing the serve half stays correct for replicas.
func (s *Server) metricsBody(snap *Snapshot) []byte {
	return memoBody(&s.mbody, snap, func() []byte {
		var buf bytes.Buffer
		WriteMetrics(&buf, snap)
		return buf.Bytes()
	})
}

// withForecasts copies views and attaches predicted starts to the jobs
// that are still waiting, the predictions in one slice beside the copy. The
// input slice (usually shared with a published snapshot) is never modified.
func withForecasts(views []JobView, pred *forecastPred) []JobView {
	if len(views) == 0 {
		return nil
	}
	out := make([]JobView, len(views))
	copy(out, views)
	starts := make([]int64, len(views))
	for i := range out {
		if t, ok := pred.get(out[i].ID); ok {
			starts[i] = t
			out[i].PredictedStart = &starts[i]
		}
	}
	return out
}

// queueResponse renders GET /v1/queue from a snapshot plus its forecast.
func queueResponse(snap *Snapshot, pred *forecastPred) QueueResponse {
	return QueueResponse{
		Version:   snap.Version,
		Now:       snap.Now,
		Scheduler: snap.Scheduler,
		Procs:     snap.Procs,
		ProcsBusy: snap.ProcsBusy,
		Submitted: snap.Submitted,
		Pending:   snap.Pending,
		Queued:    withForecasts(snap.QueuedViews(), pred),
		Running:   snap.Running,
		Completed: snap.Completed,
		Cancelled: snap.Cancelled,
	}
}

// jobResponse renders one job's view from a snapshot, attaching the
// memoized forecast when the job is still waiting.
func (s *Server) jobResponse(snap *Snapshot, id int) (JobView, bool) {
	v, ok := snap.Jobs.Get(id)
	if !ok {
		return JobView{}, false
	}
	if v.State == sim.StateQueued.String() || v.State == sim.StatePending.String() {
		if t, ok := s.forecastFor(snap).get(id); ok {
			t := t
			v.PredictedStart = &t
		}
	}
	return v, true
}
