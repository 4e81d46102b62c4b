package audit

import (
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fake is a scriptable scheduler for violation tests: Launch returns
// whatever the test queued via pending, and the optional hooks fake the
// reservation/guarantee interfaces.
type fake struct {
	queue   []*job.Job
	pending []*job.Job
	resv    map[int]int64
	guar    map[int]int64
}

func (f *fake) Name() string                 { return "fake" }
func (f *fake) Arrive(_ int64, j *job.Job)   { f.queue = append(f.queue, j) }
func (f *fake) Complete(_ int64, _ *job.Job) {}
func (f *fake) Launch(_ int64) []*job.Job {
	out := f.pending
	f.pending = nil
	return out
}
func (f *fake) QueuedJobs() []*job.Job { return f.queue }

// fakeReserving additionally exposes the conservative Reservation hook.
type fakeReserving struct{ fake }

func (f *fakeReserving) Reservation(id int) (int64, bool) {
	t, ok := f.resv[id]
	return t, ok
}

// fakeSlack exposes both hooks, so it is audited under slack semantics.
type fakeSlack struct{ fakeReserving }

func (f *fakeSlack) Guarantee(id int) (int64, bool) {
	g, ok := f.guar[id]
	return g, ok
}

func wantRules(t *testing.T, a *Auditor, rules ...string) {
	t.Helper()
	got := make(map[string]bool)
	for _, v := range a.Violations() {
		got[v.Rule] = true
	}
	for _, r := range rules {
		if !got[r] {
			t.Errorf("missing violation %q; recorded: %v", r, a.Violations())
		}
	}
	if a.Err() == nil {
		t.Errorf("Err() = nil with %d expected violations", len(rules))
	}
}

func exact(id int, arr, rt int64, w int) *job.Job {
	return &job.Job{ID: id, Arrival: arr, Runtime: rt, Estimate: rt, Width: w}
}

func TestCapacityExceeded(t *testing.T) {
	f := &fake{}
	a := New(4, f, Options{})
	j1, j2 := exact(1, 0, 10, 3), exact(2, 0, 10, 3)
	a.Arrive(0, j1)
	a.Arrive(0, j2)
	f.pending = []*job.Job{j1, j2}
	a.Launch(0)
	wantRules(t, a, RuleCapacity)
}

func TestLaunchDiscipline(t *testing.T) {
	f := &fake{}
	a := New(8, f, Options{})
	j1 := exact(1, 0, 10, 1)
	ghost := exact(9, 0, 10, 1) // never arrives
	a.Arrive(0, j1)
	f.pending = []*job.Job{j1, j1, ghost}
	a.Launch(0)
	wantRules(t, a, RuleDuplicateInBatch, RuleLaunchUnknown)

	// Starting an already-running job in a later batch.
	f.pending = []*job.Job{j1}
	a.Launch(1)
	wantRules(t, a, RuleDoubleLaunch)

	// Completing it, then starting it again.
	a.Complete(10, j1)
	f.pending = []*job.Job{j1}
	a.Launch(11)
	wantRules(t, a, RuleRelaunchCompleted)
}

func TestArrivalDiscipline(t *testing.T) {
	f := &fake{}
	a := New(8, f, Options{})
	j := exact(1, 5, 10, 1)
	a.Arrive(0, j) // delivered before its submission time
	a.Arrive(0, j) // and twice
	f.pending = []*job.Job{j}
	a.Launch(0) // started before arrival
	wantRules(t, a, RuleArrivalTime, RuleDoubleArrive, RuleLaunchBeforeArrival)
}

func TestCompleteNotRunning(t *testing.T) {
	f := &fake{}
	a := New(8, f, Options{})
	j := exact(1, 0, 10, 1)
	a.Arrive(0, j)
	a.Complete(10, j)
	wantRules(t, a, RuleCompleteNotRunning)
}

func TestKillAtEstimate(t *testing.T) {
	f := &fake{}
	a := New(8, f, Options{})
	j := exact(1, 0, 10, 1)
	a.Arrive(0, j)
	f.pending = []*job.Job{j}
	a.Launch(0)
	a.Complete(7, j) // finished after 7s of a 10s runtime: engine bug
	wantRules(t, a, RuleKillAtEstimate)
}

func TestReservationMonotone(t *testing.T) {
	f := &fakeReserving{}
	f.resv = map[int]int64{1: 20}
	a := New(8, f, Options{})
	j := exact(1, 0, 10, 1)
	a.Arrive(0, j)   // reservation captured: 20
	f.resv[1] = 35   // a later "compression" moved it backwards
	a.Complete(5, j) // any event observes the drift (complete-not-running too)
	wantRules(t, a, RuleReservationMonotone)
}

func TestStartByReservation(t *testing.T) {
	f := &fakeReserving{}
	f.resv = map[int]int64{1: 5}
	a := New(8, f, Options{})
	j := exact(1, 0, 30, 1)
	a.Arrive(0, j)
	delete(f.resv, 1)
	f.pending = []*job.Job{j}
	a.Launch(9) // past the granted reservation
	wantRules(t, a, RuleStartByReservation)
}

func TestSlackGuarantee(t *testing.T) {
	f := &fakeSlack{}
	f.resv = map[int]int64{1: 5}
	f.guar = map[int]int64{1: 12}
	a := New(8, f, Options{})
	j := exact(1, 0, 30, 1)
	a.Arrive(0, j)
	f.resv[1] = 15 // moved later: allowed under slack, but past the guarantee
	f.pending = nil
	a.Launch(3)
	f.pending = []*job.Job{j}
	a.Launch(20) // and the start itself breaks the guarantee
	wantRules(t, a, RuleSlackGuarantee)
	for _, v := range a.Violations() {
		if v.Rule == RuleReservationMonotone {
			t.Errorf("slack semantics must allow reservations to move later: %v", v)
		}
	}
}

func TestHeadNoDelay(t *testing.T) {
	f := &fake{}
	a := New(2, f, Options{Policy: sched.FCFS{}, CheckHeadGuarantee: true})
	j1, j2 := exact(1, 0, 10, 2), exact(2, 0, 10, 2)
	a.Arrive(0, j1)
	a.Arrive(0, j2)
	f.pending = []*job.Job{j1}
	a.Launch(0) // head j2 blocked; shadow bound = 10
	a.Complete(10, j1)
	a.Launch(10) // lazy scheduler starts nothing
	f.pending = []*job.Job{j2}
	f.queue = nil
	a.Launch(13) // head started past its bound
	wantRules(t, a, RuleHeadNoDelay)
}

func TestFailModePanics(t *testing.T) {
	f := &fake{}
	a := New(4, f, Options{Mode: Fail})
	j1, j2 := exact(1, 0, 10, 3), exact(2, 0, 10, 3)
	a.Arrive(0, j1)
	a.Arrive(0, j2)
	f.pending = []*job.Job{j1, j2}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("Fail mode did not panic on a capacity violation")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, RuleCapacity) {
			t.Fatalf("panic %v does not name the %s rule", r, RuleCapacity)
		}
	}()
	a.Launch(0)
}

func TestMaxRecordedTruncates(t *testing.T) {
	f := &fake{}
	a := New(8, f, Options{MaxRecorded: 2})
	for i := 1; i <= 5; i++ {
		j := exact(i, 3, 10, 1)
		a.Arrive(0, j) // arrival-time violation each
	}
	rep := a.Report()
	if len(rep.Violations) != 2 || rep.Truncated != 3 {
		t.Fatalf("recorded %d truncated %d, want 2 and 3", len(rep.Violations), rep.Truncated)
	}
	if rep.Err() == nil {
		t.Fatalf("truncated report must still error")
	}
	if got := a.ViolationCount(); got != 5 {
		t.Fatalf("ViolationCount = %d, want recorded + truncated = 5", got)
	}
}

// TestCleanRunThroughEngine wraps every registered scheduler and runs a
// small workload end-to-end through sim.Run: the auditor must stay silent
// and must not change the schedule.
func TestCleanRunThroughEngine(t *testing.T) {
	const procs = 8
	jobs := []*job.Job{
		exact(1, 0, 100, 6),
		exact(2, 1, 100, 6),
		exact(3, 2, 50, 4),
		{ID: 4, Arrival: 3, Runtime: 30, Estimate: 90, Width: 2},
		{ID: 5, Arrival: 40, Runtime: 10, Estimate: 10, Width: 8},
	}
	for _, kind := range sched.Kinds() {
		for _, polName := range []string{"FCFS", "SJF", "XF"} {
			pol, err := sched.PolicyByName(polName)
			if err != nil {
				t.Fatal(err)
			}
			mk, err := sched.MakerFor(kind, pol)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := sim.Run(sim.Machine{Procs: procs}, jobs, mk(procs), nil)
			if err != nil {
				t.Fatalf("%s/%s unwrapped: %v", kind, polName, err)
			}
			ps, rep, err := Run(procs, jobs, mk(procs), OptionsForKind(kind, pol))
			if err != nil {
				t.Fatalf("%s/%s audited: %v", kind, polName, err)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("%s/%s: %v", kind, polName, err)
			}
			if len(ps) != len(bare) {
				t.Fatalf("%s/%s: wrapper changed placement count", kind, polName)
			}
			for i := range ps {
				if ps[i].Job.ID != bare[i].Job.ID || ps[i].Start != bare[i].Start || ps[i].End != bare[i].End {
					t.Fatalf("%s/%s: wrapper changed the schedule at %d: %+v vs %+v",
						kind, polName, i, ps[i], bare[i])
				}
			}
		}
	}
}

// fakeCancelling acknowledges every cancellation and withdraws nothing.
type fakeCancelling struct{ fake }

func (f *fakeCancelling) Cancel(int64, *job.Job) bool { return true }

// TestLaunchCancelled: a scheduler that agreed to withdraw a job and starts
// it anyway is reported, and the job is not counted as running.
func TestLaunchCancelled(t *testing.T) {
	f := &fakeCancelling{}
	a := New(8, f, Options{})
	j := exact(1, 0, 10, 8)
	a.Arrive(0, j)
	if !a.Cancel(0, j) {
		t.Fatal("cancel refused")
	}
	f.pending = []*job.Job{j, j}
	a.Launch(1)
	wantRules(t, a, RuleLaunchCancelled, RuleDuplicateInBatch)
	if a.inUse != 0 {
		t.Errorf("cancelled job holds %d processors", a.inUse)
	}
	if got := a.ViolationCount(); got != 2 {
		t.Errorf("ViolationCount = %d, want 2", got)
	}
}

// TestWrappedPolicyFallsBackToScan: time-invariance is something a policy
// says of itself; a wrapper that does not forward the method is taken as
// time-varying, keeps the unordered queue, and reaches the same verdict.
func TestWrappedPolicyFallsBackToScan(t *testing.T) {
	run := func(pol Policy) *Auditor {
		f := &fake{}
		a := New(2, f, Options{Policy: pol, CheckHeadGuarantee: true})
		j1, j2, j3 := exact(1, 0, 10, 2), exact(2, 0, 10, 2), exact(3, 1, 20, 1)
		a.Arrive(0, j1)
		a.Arrive(0, j2)
		f.pending = []*job.Job{j1}
		a.Launch(0)
		a.Arrive(1, j3) // later and longer: behind the head under FCFS and SJF
		a.Complete(10, j1)
		f.pending = []*job.Job{j2}
		a.Launch(13)
		return a
	}
	for _, pol := range []Policy{sched.FCFS{}, sched.SJF{}} {
		direct, wrapped := run(pol), run(hiddenPolicy{pol})
		if !direct.ordered || wrapped.ordered {
			t.Fatalf("%s: ordered = %v direct, %v wrapped; want true, false", pol.Name(), direct.ordered, wrapped.ordered)
		}
		dv, wv := direct.Violations(), wrapped.Violations()
		if len(dv) != 1 || len(dv) != len(wv) {
			t.Fatalf("%s: %v direct vs %v wrapped", pol.Name(), dv, wv)
		}
		for i := range dv {
			if dv[i].String() != wv[i].String() { // each run has its own jobs
				t.Errorf("%s: violation %d: %v direct vs %v wrapped", pol.Name(), i, dv[i], wv[i])
			}
		}
	}
	if a := New(2, &fake{}, Options{Policy: sched.XF{}, CheckHeadGuarantee: true}); a.ordered {
		t.Fatal("XF must not be kept as a heap: its order moves with time")
	}
}

// TestHeadRuleFollowsAgingPolicy: under XF the head can change with the
// clock alone, and an instant can consist of nothing but a scheduling pass
// (here the arrival of a job withdrawn before it arrived). EASY rightly
// starts the job that has aged into the head at that instant; the auditor
// must judge the pass against that head, not against the head of the last
// event, or it blames EASY for delaying a job that was not the head.
func TestHeadRuleFollowsAgingPolicy(t *testing.T) {
	pol := sched.XF{}
	a := New(4, sched.NewEASY(4, pol), OptionsForKind("easy", pol))
	ss, err := sim.Open(sim.Machine{Procs: 4}, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(j *job.Job) {
		t.Helper()
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
		if err := ss.AdvanceTo(ss.Now()); err != nil {
			t.Fatal(err)
		}
	}
	submit(exact(1, 0, 49, 2))
	submit(&job.Job{ID: 2, Arrival: 0, Runtime: 49, Estimate: 97, Width: 4}) // blocked head, shadow 49
	submit(&job.Job{ID: 3, Arrival: 2, Runtime: 49, Estimate: 97, Width: 1})
	submit(&job.Job{ID: 4, Arrival: 0, Runtime: 49, Estimate: 54, Width: 1}) // too long to backfill at 0
	if !ss.Cancel(3) {
		t.Fatal("cancel of pending job failed")
	}
	// t=2 is a bare pass; by then job 4's xfactor has overtaken job 2's.
	if _, err := ss.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditedNoopLaunchAllocs is TestLaunchNoopAllocs (internal/sched) seen
// through the auditor: behind a deep standing queue a pass that starts
// nothing must cost the auditor no allocation either, for every scheduler
// kind — no per-call set, no copy of the running set.
func TestAuditedNoopLaunchAllocs(t *testing.T) {
	for _, kind := range sched.Kinds() {
		pol := sched.FCFS{}
		mk, err := sched.MakerFor(kind, pol)
		if err != nil {
			t.Fatal(err)
		}
		a := New(16, mk(16), OptionsForKind(kind, pol))
		a.Arrive(0, &job.Job{ID: 1, Arrival: 0, Runtime: 5000, Estimate: 6000, Width: 16})
		a.LaunchAndPreempt(0) // starts the head; machine now full
		for id := 2; id <= 514; id++ {
			a.Arrive(1, &job.Job{ID: id, Arrival: 1, Runtime: 1000, Estimate: 1200, Width: 12})
		}
		a.LaunchAndPreempt(1)
		now := int64(2)
		if avg := testing.AllocsPerRun(200, func() {
			if starts, suspends := a.LaunchAndPreempt(now); len(starts)+len(suspends) != 0 {
				t.Fatalf("%s: no-op pass at t=%d started %d and suspended %d", kind, now, len(starts), len(suspends))
			}
			now++
		}); avg != 0 {
			t.Fatalf("%s: audited no-op pass allocates %.1f times, want 0", kind, avg)
		}
		if err := a.Err(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// standing keeps a queue of fixed depth standing behind a full machine, as
// on a daemon whose queue never drains: every job cancelled from the middle
// of it is replaced by a new one. Estimates are scrambled so that SJF order
// is unrelated to arrival order.
type standing struct {
	a    *Auditor
	live []*job.Job
	id   int
}

// newStanding starts a machine-wide blocker (through pending when the
// scheduler is a stub that starts what it is told to) and queues depth jobs
// behind it.
func newStanding(a *Auditor, pending *[]*job.Job, depth int) *standing {
	blocker := &job.Job{ID: 1, Arrival: 0, Runtime: 1 << 40, Estimate: 1 << 40, Width: 16}
	a.Arrive(0, blocker)
	if pending != nil {
		*pending = []*job.Job{blocker}
	}
	a.Launch(0)
	s := &standing{a: a, id: 2}
	for len(s.live) < depth {
		s.arrive()
	}
	return s
}

func (s *standing) arrive() {
	rt := int64(s.id*7919%997) + 1
	j := &job.Job{ID: s.id, Arrival: 1, Runtime: rt, Estimate: rt, Width: 12}
	s.id++
	s.a.Arrive(1, j)
	s.live = append(s.live, j)
}

// cancelMid withdraws the i-th pick from the middle of the queue and
// returns it, or nil if the scheduler refused.
func (s *standing) cancelMid(i int) *job.Job {
	k := (i*31 + len(s.live)/2) % len(s.live)
	j := s.live[k]
	if !s.a.Cancel(1, j) {
		return nil
	}
	s.live[k] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	return j
}

// TestMidQueueCancelsLeaveNoResidue: a daemon's queue never drains, so a
// heap that only marked cancelled entries dead would keep every one of
// them. Removal is by index; after 100 000 cancels from the middle of a
// standing queue the heap holds exactly the queued jobs.
func TestMidQueueCancelsLeaveNoResidue(t *testing.T) {
	const depth, cancels = 64, 100000
	pol := sched.SJF{}
	a := New(16, sched.NewEASY(16, pol), OptionsForKind("easy", pol))
	q := newStanding(a, nil, depth)
	for i := 0; i < cancels; i++ {
		if q.cancelMid(i) == nil {
			t.Fatal("cancel of a queued job refused")
		}
		q.arrive()
		a.Launch(1)
	}
	queued := 0
	for _, st := range a.jobs {
		if st.arrived && !st.running && !st.done && !st.cancelled {
			queued++
		}
	}
	if len(a.queue) != queued || queued != depth {
		t.Fatalf("heap holds %d entries for %d queued jobs (want %d)", len(a.queue), queued, depth)
	}
	if cap(a.queue) > 4*depth {
		t.Fatalf("heap capacity grew to %d under a %d-deep queue", cap(a.queue), depth)
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}

// countingPolicy counts comparisons and forwards time-invariance.
type countingPolicy struct {
	Policy
	less *int
}

func (c countingPolicy) Less(a, b *job.Job, now int64) bool {
	*c.less++
	return c.Policy.Less(a, b, now)
}

func (c countingPolicy) TimeInvariant() bool { return true }

// countingReserver is a scheduler that keeps a reservation per queued job,
// logs its writes, and counts how often it is asked for one.
type countingReserver struct {
	fakeCancelling
	probes int
	wrote  []int
}

func (f *countingReserver) Arrive(now int64, j *job.Job) {
	f.resv[j.ID] = now + 1000
	f.wrote = append(f.wrote, j.ID)
}

func (f *countingReserver) Reservation(id int) (int64, bool) {
	f.probes++
	t, ok := f.resv[id]
	return t, ok
}

func (f *countingReserver) TrackReservationWrites() func() []int {
	return func() []int {
		ids := f.wrote
		f.wrote = f.wrote[:0]
		return ids
	}
}

// TestEventCostIsIndependentOfDepth is the deterministic form of
// BenchmarkAuditorEvent's flatness: per arrive / no-op pass / mid-queue
// cancel the auditor makes O(log depth) policy comparisons and O(written)
// reservation probes, so a 64-fold deeper queue costs a few comparisons
// more, not 64 times as many.
func TestEventCostIsIndependentOfDepth(t *testing.T) {
	cost := func(depth int) (less, probes float64) {
		var nLess int
		f := &countingReserver{}
		f.resv = make(map[int]int64)
		a := New(16, f, Options{Policy: countingPolicy{sched.SJF{}, &nLess}, CheckHeadGuarantee: true})
		q := newStanding(a, &f.pending, depth)
		nLess, f.probes = 0, 0
		const rounds = 2000
		for i := 0; i < rounds; i++ {
			q.arrive()
			a.Launch(1)
			delete(f.resv, q.cancelMid(i).ID)
		}
		if err := a.Err(); err != nil {
			t.Fatal(err)
		}
		return float64(nLess) / (3 * rounds), float64(f.probes) / (3 * rounds)
	}
	shallowLess, shallowProbes := cost(64)
	deepLess, deepProbes := cost(4096)
	t.Logf("per event: %.1f comparisons, %.2f probes at depth 64; %.1f, %.2f at depth 4096", shallowLess, shallowProbes, deepLess, deepProbes)
	if deepLess > shallowLess+10 {
		t.Errorf("comparisons per event grew from %.1f to %.1f between depth 64 and 4096", shallowLess, deepLess)
	}
	if deepProbes != shallowProbes || deepProbes > 0.5 {
		t.Errorf("reservation probes per event: %.2f at depth 64, %.2f at depth 4096; want one per arrival at both", shallowProbes, deepProbes)
	}
}
