package audit

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// This file differentially tests the auditor's O(delta) bookkeeping
// (DESIGN.md §7) the way sched's FuzzLaunchIncremental tests the pass memos:
// one random submit / cancel / advance program drives two auditors over two
// instances of the same scheduler. The first sees the scheduler and the
// policy as they are, so it keeps its queue as a heap and re-checks
// reservations from the write log; the second sees wrappers that hide
// TimeInvariant and the write log, so it finds the head and the changed
// reservations by scanning every queued job. After every engine call the
// two must hold the same head, bound, per-job reservation state and list of
// violations — on correct schedulers and on mutants that break each
// guarantee, so that the equivalence is shown on violating runs too. A
// third, test-side reference recomputes head and bound the way the auditor
// did before it kept any order: min over the queue, sort the runners.

// hiddenPolicy forwards Name and Less and nothing else.
type hiddenPolicy struct{ Policy }

// plain forwards the sim.Scheduler contract and Cancel, and hides every
// other capability of the scheduler behind it.
type plain struct{ sim.Scheduler }

func (p plain) Cancel(now int64, j *job.Job) bool {
	c, ok := p.Scheduler.(canceler)
	return ok && c.Cancel(now, j)
}

// hideLog returns s without its reservation write log and with every
// capability the auditor branches on intact. Only reservation keepers have
// a log to hide.
func hideLog(s sim.Scheduler) sim.Scheduler {
	r, isR := s.(reservist)
	if !isR {
		return s
	}
	g, isG := s.(guarantor)
	w, isW := s.(sim.Waker)
	_, isP := s.(sim.Preemptor)
	switch {
	case isP:
	case isG && isW:
		return struct {
			plain
			reservist
			guarantor
			sim.Waker
		}{plain{s}, r, g, w}
	case isG:
		return struct {
			plain
			reservist
			guarantor
		}{plain{s}, r, g}
	case isW:
		return struct {
			plain
			reservist
			sim.Waker
		}{plain{s}, r, w}
	}
	panic(fmt.Sprintf("hideLog: no wrapper for the capabilities of %s", s.Name()))
}

// lazyHead is the mutant that breaks EASY's guarantee: it sits out the pass
// at every instant a job completed and asks to be woken five seconds on, so
// a head that was due at its shadow time starts late.
type lazyHead struct {
	plain
	skipAt int64
	wake   int64
}

func (m *lazyHead) Complete(now int64, j *job.Job) {
	m.Scheduler.Complete(now, j)
	m.skipAt = now
}

func (m *lazyHead) Launch(now int64) []*job.Job {
	if now == m.skipAt && now > 0 {
		m.wake = now + 5
		return nil
	}
	return m.Scheduler.Launch(now)
}

func (m *lazyHead) NextWake(now int64) int64 {
	if m.wake > now {
		return m.wake
	}
	return 0
}

// laterResv is the mutant that breaks the reservation guarantees: after
// every completion it reports the reservation of the lowest-numbered queued
// job bump seconds later than the scheduler holds it. With logged set the
// write goes into the log like any other; without, it is a write around the
// table, which only a scan can see.
type laterResv struct {
	plain
	inner  reservist
	waker  sim.Waker
	drain  func() []int
	bump   int64
	logged bool
	offset map[int]int64
	wrote  []int
	out    []int
}

func newLaterResv(s sim.Scheduler, bump int64, logged bool) *laterResv {
	m := &laterResv{plain: plain{s}, inner: s.(reservist), bump: bump, logged: logged, offset: make(map[int]int64)}
	m.waker, _ = s.(sim.Waker)
	return m
}

func (m *laterResv) Complete(now int64, j *job.Job) {
	m.Scheduler.Complete(now, j)
	q := m.QueuedJobs()
	if len(q) == 0 {
		return
	}
	low := q[0]
	for _, k := range q[1:] {
		if k.ID < low.ID {
			low = k
		}
	}
	m.offset[low.ID] += m.bump
	if m.logged {
		m.wrote = append(m.wrote, low.ID)
	}
}

func (m *laterResv) Reservation(id int) (int64, bool) {
	t, ok := m.inner.Reservation(id)
	return t + m.offset[id], ok
}

func (m *laterResv) NextWake(now int64) int64 {
	if m.waker == nil {
		return 0
	}
	return m.waker.NextWake(now)
}

func (m *laterResv) TrackReservationWrites() func() []int {
	m.drain = m.Scheduler.(writeLogger).TrackReservationWrites()
	return func() []int {
		m.out = append(append(m.out[:0], m.drain()...), m.wrote...)
		m.wrote = m.wrote[:0]
		return m.out
	}
}

// laterResvSlack is laterResv over a scheduler with guarantees.
type laterResvSlack struct{ *laterResv }

func (m laterResvSlack) Guarantee(id int) (int64, bool) {
	return m.Scheduler.(guarantor).Guarantee(id)
}

// auditCell is one scheduler under test: how to build it and how to audit
// it.
type auditCell struct {
	name string
	mk   func(procs int, pol sched.Policy) sim.Scheduler
	opts func(pol Policy) Options
}

func kindCell(kind string) auditCell {
	return auditCell{
		name: kind,
		mk: func(procs int, pol sched.Policy) sim.Scheduler {
			mk, err := sched.MakerFor(kind, pol)
			if err != nil {
				panic(err)
			}
			return mk(procs)
		},
		opts: func(pol Policy) Options { return OptionsForKind(kind, pol) },
	}
}

// correctCells is every scheduler kind under the options core.Run gives it.
func correctCells() []auditCell {
	var cells []auditCell
	for _, kind := range append(sched.Kinds(), "selective:2", "preemptive:2") {
		cells = append(cells, kindCell(kind))
	}
	return cells
}

// mutantCells break one guarantee each; rule is the finding each must be
// able to produce (TestAuditIncrementalMutantsViolate).
func mutantCells() []struct {
	auditCell
	rule string
} {
	headOpts := func(pol Policy) Options { return Options{Policy: pol, CheckHeadGuarantee: true} }
	noOpts := func(pol Policy) Options { return Options{Policy: pol} }
	return []struct {
		auditCell
		rule string
	}{
		{auditCell{"lazy-head", func(procs int, pol sched.Policy) sim.Scheduler {
			return &lazyHead{plain: plain{sched.NewEASY(procs, pol)}}
		}, headOpts}, RuleHeadNoDelay},
		{auditCell{"resv-later", func(procs int, pol sched.Policy) sim.Scheduler {
			return newLaterResv(sched.NewConservative(procs, pol), 7, true)
		}, noOpts}, RuleReservationMonotone},
		{auditCell{"slack-past-guarantee", func(procs int, pol sched.Policy) sim.Scheduler {
			return laterResvSlack{newLaterResv(sched.NewSlackBased(procs, pol, 1), 100000, true)}
		}, noOpts}, RuleSlackGuarantee},
		// The head rule does not hold for a scheduler that suspends runners;
		// audited under it anyway, every suspension re-keys a sorted runner.
		{auditCell{"preemptive-under-head-rule", func(procs int, pol sched.Policy) sim.Scheduler {
			return sched.NewPreemptive(procs, pol, 2, 25)
		}, headOpts}, RuleHeadNoDelay},
	}
}

// scratchHead is the head rule's state recomputed the way the auditor did
// before it kept a heap or sorted runners: the head is the minimum over
// every queued job, the shadow comes from sorting the running set, and the
// bound is re-derived before every pass and after every event whether
// anything moved or not.
type scratchHead struct {
	id    int
	bound int64
}

func (h *scratchHead) track(a *Auditor, now int64) {
	var head *jobState
	var runners []*jobState
	avail := a.procs
	for _, st := range a.jobs {
		if st.qpos >= 0 && (head == nil || a.opts.Policy.Less(st.j, head.j, now)) {
			head = st
		}
		if st.running {
			runners = append(runners, st)
			avail -= st.j.Width
		}
	}
	if head == nil {
		h.id = 0
		return
	}
	bound := now
	if avail < head.j.Width {
		sort.Slice(runners, func(i, k int) bool {
			if ei, ek := runners[i].estEnd(), runners[k].estEnd(); ei != ek {
				return ei < ek
			}
			return runners[i].j.ID < runners[k].j.ID
		})
		for _, st := range runners {
			if avail += st.j.Width; avail >= head.j.Width {
				bound = st.estEnd()
				break
			}
		}
	}
	if head.j.ID != h.id {
		h.id, h.bound = head.j.ID, bound
	} else if bound < h.bound {
		h.bound = bound
	}
}

// auditPair is the scheduler the session drives: it forwards every call to
// the incremental auditor and to the scanning one, and compares them after
// each. The first disagreement is kept in err.
type auditPair struct {
	incr, scan *Auditor
	ref        scratchHead
	suspends   int
	err        error
}

func newAuditPair(procs int, pol sched.Policy, c auditCell) *auditPair {
	p := &auditPair{
		incr: New(procs, c.mk(procs, pol), c.opts(pol)),
		scan: New(procs, hideLog(c.mk(procs, pol)), c.opts(hiddenPolicy{pol})),
	}
	if p.scan.drainResv != nil || p.scan.ordered {
		panic("auditPair: the reference auditor is not scanning")
	}
	return p
}

func (p *auditPair) Name() string           { return p.incr.Name() }
func (p *auditPair) QueuedJobs() []*job.Job { return p.incr.QueuedJobs() }

func (p *auditPair) Arrive(now int64, j *job.Job) {
	p.incr.Arrive(now, j)
	p.scan.Arrive(now, j)
	p.compare(now, "arrive")
}

func (p *auditPair) Complete(now int64, j *job.Job) {
	p.incr.Complete(now, j)
	p.scan.Complete(now, j)
	p.compare(now, "complete")
}

func (p *auditPair) Launch(now int64) []*job.Job {
	starts, _ := p.LaunchAndPreempt(now)
	return starts
}

func (p *auditPair) LaunchAndPreempt(now int64) (starts, suspends []*job.Job) {
	if p.incr.opts.CheckHeadGuarantee {
		p.ref.track(p.incr, now) // the head the pass is judged against
	}
	starts, suspends = p.incr.LaunchAndPreempt(now)
	s2, u2 := p.scan.LaunchAndPreempt(now)
	if !sameJobs(starts, s2) || !sameJobs(suspends, u2) {
		p.fail(now, "launch", "the two scheduler instances decided differently")
	}
	p.suspends += len(suspends)
	p.compare(now, "launch")
	return starts, suspends
}

func (p *auditPair) NextWake(now int64) int64 {
	w := p.incr.NextWake(now)
	if w2 := p.scan.NextWake(now); w2 != w {
		p.fail(now, "wake", fmt.Sprintf("wake %d vs %d", w, w2))
	}
	return w
}

func (p *auditPair) Cancel(now int64, j *job.Job) bool {
	ok := p.incr.Cancel(now, j)
	if ok2 := p.scan.Cancel(now, j); ok2 != ok {
		p.fail(now, "cancel", "the two scheduler instances decided differently")
	}
	if ok {
		p.compare(now, "cancel")
	}
	return ok
}

func sameJobs(a, b []*job.Job) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p *auditPair) fail(now int64, event, what string) {
	if p.err == nil {
		p.err = fmt.Errorf("t=%d after %s: %s", now, event, what)
	}
}

func headOf(a *Auditor) (int, int64) {
	if a.head == nil {
		return 0, 0
	}
	return a.head.j.ID, a.headBound
}

// compare holds the incremental auditor against the scanning one and, for
// the head rule, both against the from-scratch reference.
func (p *auditPair) compare(now int64, event string) {
	a, b := p.incr, p.scan
	if a.opts.CheckHeadGuarantee {
		p.ref.track(a, now)
		wantID, wantBound := p.ref.id, p.ref.bound
		if wantID == 0 {
			wantBound = 0
		}
		for _, x := range []*Auditor{a, b} {
			if id, bound := headOf(x); id != wantID || bound != wantBound {
				p.fail(now, event, fmt.Sprintf("head %d bound %d, from scratch head %d bound %d (ordered=%v)",
					id, bound, wantID, wantBound, x.ordered))
			}
		}
		if len(a.runners) > 1 && !sort.SliceIsSorted(a.runners, func(i, k int) bool { return cmpRunner(a.runners[i], a.runners[k]) < 0 }) {
			p.fail(now, event, fmt.Sprintf("runners out of order: %v", a.runners))
		}
	}
	if len(a.queue) != len(b.queue) {
		p.fail(now, event, fmt.Sprintf("%d queued vs %d", len(a.queue), len(b.queue)))
	}
	for i, st := range a.queue {
		if int(st.qpos) != i {
			p.fail(now, event, fmt.Sprintf("job %d at index %d believes it is at %d", st.j.ID, i, st.qpos))
		}
		o := b.jobs[st.j.ID]
		if o == nil || o.qpos < 0 {
			p.fail(now, event, fmt.Sprintf("job %d queued on one side only", st.j.ID))
			continue
		}
		if st.hasResv != o.hasResv || st.initialResv != o.initialResv || st.lastResv != o.lastResv ||
			st.hasGuar != o.hasGuar || st.guarantee != o.guarantee {
			p.fail(now, event, fmt.Sprintf("job %d reservation state: resv %v %d/%d guar %v %d vs resv %v %d/%d guar %v %d",
				st.j.ID, st.hasResv, st.initialResv, st.lastResv, st.hasGuar, st.guarantee,
				o.hasResv, o.initialResv, o.lastResv, o.hasGuar, o.guarantee))
		}
	}
	if len(a.violations) != len(b.violations) || a.truncated != b.truncated {
		p.fail(now, event, fmt.Sprintf("%d(+%d) violations vs %d(+%d); incremental %v, scanning %v",
			len(a.violations), a.truncated, len(b.violations), b.truncated, a.violations, b.violations))
		return
	}
	for i, v := range a.violations {
		if v != b.violations[i] {
			p.fail(now, event, fmt.Sprintf("violation %d: %v vs %v", i, v, b.violations[i]))
		}
	}
}

// runAuditProgram replays one decoded program through a session over an
// auditPair and returns the pair and the first divergence or engine error.
// Ops: 0-2 submit (arriving now or up to three seconds on), 3-4 advance,
// 5-6 cancel any job submitted so far, 7 run the session dry.
func runAuditProgram(procs int, pol sched.Policy, c auditCell, program []byte) (*auditPair, error) {
	p := newAuditPair(procs, pol, c)
	ss, err := sim.Open(sim.Machine{Procs: procs}, p, nil)
	if err != nil {
		return p, err
	}
	nextID := 1
	const maxJobs = 32
	for i := 0; i < len(program) && err == nil && p.err == nil; i++ {
		switch op := program[i] % 8; {
		case op <= 2 && nextID <= maxJobs:
			if i+3 >= len(program) {
				return p, p.err
			}
			rt := int64(program[i+1]%100) + 1
			j := &job.Job{
				ID:       nextID,
				Arrival:  ss.Now() + int64(program[i]/8%4),
				Runtime:  rt,
				Estimate: rt + int64(program[i+2]%50),
				Width:    int(program[i+3])%procs + 1,
			}
			i += 3
			nextID++
			if err = ss.Submit(j); err == nil {
				err = ss.AdvanceTo(ss.Now())
			}
		case op <= 4:
			if i+1 >= len(program) {
				return p, p.err
			}
			i++
			err = ss.AdvanceTo(ss.Now() + int64(program[i]%200) + 1)
		case op <= 6:
			if i+1 >= len(program) {
				return p, p.err
			}
			i++
			ss.Cancel(int(program[i])%nextID + 1)
			err = ss.Err()
		default:
			_, err = ss.Drain()
		}
	}
	if err == nil && p.err == nil {
		_, err = ss.Drain()
	}
	return p, errors.Join(p.err, err)
}

var auditFuzzSeeds = [][]byte{
	// A blocked head with backfills landing around it, then early
	// completions that open holes for compression.
	[]byte("\x06\x00\x08\x40\x10\x00\x02\x05\x00\x03\x30\x00\x01\x20\x05\x04\x21\x03\x50\x08\x10\x30\x02\x04\x90"),
	// Exact estimates, a deep queue, cancels from the middle of it.
	[]byte("\x0a\x00\x04\x10\x00\x00\x06\x20\x00\x03\x63\x00\x01\x01\x00\x02\x01\x00\x01\x06\x02\x05\x03\x03\x40\x0e\x01\x04\x63"),
	// Over-estimated narrow jobs under wide ones: suspensions, slack.
	[]byte("\x04\x05\x03\x63\x30\x02\x00\x01\x3c\x00\x04\x40\x03\x80\x05\x01\x00\x50\x31\x03\x11\x02\x02\x01\x04\xc7\x07"),
	// Found by search: the preemptive scheduler suspends a runner and later
	// starts the head past the bound the head rule would hold it to.
	[]byte("\xac\x18\x3c\x38\x33\xe1\xa3\x42\x5e\xad\x69\xd4\xf9\x75\x01\x2f\xd1\xa4\x9e\xd8\x32\xf6\x9e\x6e\x9c\x63\xb4\x53\xec\x04\x9c\x9e\x7a\x5c\xf9\x44\x23\x2d\x10\x35\x3f\x64\x43\x4a\xba\xe0\x60\xf6\x50\x6a\xd3\xfd\xb1\xf4\x41\x5b\x0a\xf9\xce\x8c"),
}

func auditFuzzPolicies() []sched.Policy { return []sched.Policy{sched.FCFS{}, sched.SJF{}, sched.XF{}} }

// FuzzAuditIncremental decodes each input into a machine size and a
// program and replays it through every scheduler kind and every mutant
// under FCFS, SJF and XF. A correct scheduler must also come out clean.
func FuzzAuditIncremental(f *testing.F) {
	for _, seed := range auditFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		procs := int(data[0]%13) + 4 // 4..16
		program := data[1:]
		if len(program) > 160 {
			program = program[:160]
		}
		for _, pol := range auditFuzzPolicies() {
			for _, c := range correctCells() {
				p, err := runAuditProgram(procs, pol, c, program)
				if err != nil {
					t.Fatalf("%s/%s: %v", c.name, pol.Name(), err)
				}
				if err := p.incr.Err(); err != nil {
					t.Fatalf("%s/%s: %v", c.name, pol.Name(), err)
				}
			}
			for _, c := range mutantCells() {
				if _, err := runAuditProgram(procs, pol, c.auditCell, program); err != nil {
					t.Fatalf("mutant %s/%s: %v", c.name, pol.Name(), err)
				}
			}
		}
	})
}

// TestAuditIncrementalMutantsViolate makes sure the fuzzer's equivalence is
// not shown on clean runs alone: over the seed programs every mutant
// produces the finding it exists for, identically on both auditors.
func TestAuditIncrementalMutantsViolate(t *testing.T) {
	for _, c := range mutantCells() {
		found, suspends := false, 0
		for _, seed := range auditFuzzSeeds {
			for _, pol := range auditFuzzPolicies() {
				p, err := runAuditProgram(int(seed[0]%13)+4, pol, c.auditCell, seed[1:])
				if err != nil {
					t.Fatalf("mutant %s/%s: %v", c.name, pol.Name(), err)
				}
				for _, v := range p.incr.violations {
					found = found || v.Rule == c.rule
				}
				suspends += p.suspends
			}
		}
		if !found {
			t.Errorf("mutant %s never produced %s over the seed programs", c.name, c.rule)
		}
		if c.name == "preemptive-under-head-rule" && suspends == 0 {
			t.Errorf("mutant %s never suspended a runner over the seed programs", c.name)
		}
	}
}

// TestUnloggedWriteNeedsTheScan is the negative control, and the reason the
// scan stays in the tree: a reservation that moves without passing through
// the write log is invisible to the auditor that reads the log, the
// scanning auditor reports it, and the comparison says so. In-tree
// schedulers cannot do this — sched's reservation table has no write that
// skips the log — but a third-party scheduler is not held to that, which is
// why only the method set, never an option, selects the log.
func TestUnloggedWriteNeedsTheScan(t *testing.T) {
	c := auditCell{"resv-around-the-table", func(procs int, pol sched.Policy) sim.Scheduler {
		return newLaterResv(sched.NewConservative(procs, pol), 7, false)
	}, func(pol Policy) Options { return Options{Policy: pol} }}
	diverged := false
	for _, seed := range auditFuzzSeeds {
		p, err := runAuditProgram(int(seed[0]%13)+4, sched.FCFS{}, c, seed[1:])
		if err == nil {
			continue
		}
		if p.err == nil {
			t.Fatalf("engine error, not a divergence: %v", err)
		}
		diverged = true
		scanFound := false
		for _, v := range p.scan.violations {
			scanFound = scanFound || v.Rule == RuleReservationMonotone
		}
		if !scanFound {
			t.Errorf("the scanning auditor missed the moved reservation: %v", p.scan.violations)
		}
	}
	if !diverged {
		t.Fatal("a reservation written around the log went unnoticed by the comparison")
	}
}
