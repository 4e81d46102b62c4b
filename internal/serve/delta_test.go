package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// deltaKinds × deltaPolicies is the matrix the delta-publication and
// forecast-chain differential suites cover: the paper's seven scheduler
// kinds under its three priority policies.
var (
	deltaKinds    = []string{"none", "easy", "conservative", "depth:4", "slack:1", "selective:2", "preemptive:10"}
	deltaPolicies = []string{"FCFS", "SJF", "XF"}
)

// indexContents flattens a JobIndex into a plain map for comparison.
func indexContents(x *JobIndex) map[int]JobView {
	out := make(map[int]JobView, x.Len())
	x.Range(func(id int, v JobView) bool {
		out[id] = v
		return true
	})
	return out
}

// deriveIndex forks x and sets p's views in the fork, as a publication does.
func deriveIndex(x *JobIndex, p map[int]JobView) *JobIndex {
	next := &JobIndex{views: x.views.fork()}
	for id, v := range p {
		v := v
		next.views.set(id, &v)
	}
	return next
}

// newJobIndex builds an index holding views.
func newJobIndex(views map[int]JobView) *JobIndex { return deriveIndex(new(JobIndex), views) }

// predContents flattens a forecast into a plain map — the shape the
// differential tests compare against; nil when empty.
func predContents(p *forecastPred) map[int]int64 {
	var out map[int]int64
	p.ascend(func(id int, t int64) bool {
		if out == nil {
			out = make(map[int]int64)
		}
		out[id] = t
		return true
	})
	return out
}

// TestJobIndexDerive pins the persistent index on a fixed case: a derived
// version overlays its parent without disturbing it, Len counts distinct
// IDs, and a long lineage of small derivations (the index growing two
// levels on the way) ends with exactly the contents of an eagerly built
// map. FuzzJobIndex covers the general case.
func TestJobIndexDerive(t *testing.T) {
	base := map[int]JobView{1: {ID: 1, State: "queued"}, 2: {ID: 2, State: "running"}}
	x0 := newJobIndex(base)
	x1 := deriveIndex(x0, map[int]JobView{2: {ID: 2, State: "done"}, 3: {ID: 3, State: "queued"}})

	if got := x0.Len(); got != 2 {
		t.Fatalf("ancestor Len = %d after derive, want 2", got)
	}
	if v, _ := x0.Get(2); v.State != "running" {
		t.Fatalf("ancestor view mutated: job 2 state %q", v.State)
	}
	if got := x1.Len(); got != 3 {
		t.Fatalf("derived Len = %d, want 3", got)
	}
	if v, _ := x1.Get(2); v.State != "done" {
		t.Fatalf("derived view not patched: job 2 state %q", v.State)
	}
	if _, ok := x1.Get(4); ok {
		t.Fatal("Get invented job 4")
	}

	want := indexContents(x1)
	x := x1
	for id := 10; id < 2100; id += 2 {
		p := map[int]JobView{
			id:     {ID: id, State: "queued"},
			id + 1: {ID: id + 1, State: "running"},
		}
		for k, v := range p {
			want[k] = v
		}
		x = deriveIndex(x, p)
		if c := x.views.copied; c > 4 {
			t.Fatalf("deriving two adjacent jobs at id %d copied %d nodes", id, c)
		}
	}
	if got := indexContents(x); !reflect.DeepEqual(got, want) {
		t.Fatalf("lineage contents diverge: %d entries vs %d wanted", len(got), len(want))
	}
	if got := x.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	if got := indexContents(x1); len(got) != 3 {
		t.Fatalf("ancestor grew to %d entries under its descendants", len(got))
	}
}

// TestTrieNodeBytes pins the node layout: a branch holds only its children
// and a leaf only its values, so with 8-byte values each is a 288-byte
// object, the bytes one level of a path copy costs.
func TestTrieNodeBytes(t *testing.T) {
	if b := trieNodeBytes(); b > 288 {
		t.Fatalf("a trie node allocates %.0f bytes, want at most 288", b)
	}
}

// FuzzJobIndex runs random derive/get/range/len programs against a plain
// map oracle, over both of the trie's instantiations: a JobIndex lineage and,
// beside each of its versions, a forecastPred derived the same way with the
// same IDs. Every version ever derived is re-read after all later ones
// exist and must still hold exactly its own contents — the immutability the
// lock-free readers depend on — including versions forked from a parent
// that already has a child. IDs are dense, strided, above 2³² and negative
// by turns; Range and ascend must ascend and stop when told to.
func FuzzJobIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0xff, 0x80, 0x40, 0xc0, 0x20, 0xa0, 0x60, 0xe0, 7, 7, 7, 7, 0xf0, 0x0f})
	f.Add(bytes.Repeat([]byte{0x13, 0x57, 0x9b, 0xdf, 0x02, 0x46, 0x8a, 0xce}, 40))
	f.Fuzz(func(t *testing.T, prog []byte) {
		type version struct {
			x     *JobIndex
			want  map[int]JobView
			p     *forecastPred
			wantP map[int]int64
		}
		idOf := func(b, c byte) int {
			n := int(b)<<3 | int(c&7)
			switch c >> 3 & 3 {
			case 1:
				return 1 + 4*n // one shard's class of a four-shard federation
			case 2:
				return 1<<32 + n*1_000_003
			case 3:
				return -1 - n*n*n
			}
			return n
		}
		var nilIdx *JobIndex
		vs := []version{{x: nilIdx}, {x: newJobIndex(nil), p: new(forecastPred)}}
		for len(prog) >= 3 {
			parent := vs[int(prog[0])%len(vs)]
			count := 1 + int(prog[1])%9
			prog = prog[2:]
			want, wantP := maps.Clone(parent.want), maps.Clone(parent.wantP)
			if want == nil {
				want, wantP = map[int]JobView{}, map[int]int64{}
			}
			patch, patchP := make(map[int]JobView, count), make(map[int]int64, count)
			for ; count > 0 && len(prog) >= 2; count, prog = count-1, prog[2:] {
				id := idOf(prog[0], prog[1])
				patch[id] = JobView{ID: id, Width: len(vs), State: "patched"}
				patchP[id] = int64(id)*3 + int64(len(vs))
				want[id], wantP[id] = patch[id], patchP[id]
			}
			if parent.x == nil || len(vs)%5 == 0 {
				// A fresh lineage, every so often.
				vs = append(vs, version{newJobIndex(want), want, derivePred(nil, wantP), wantP})
			} else {
				vs = append(vs, version{deriveIndex(parent.x, patch), want, derivePred(parent.p, patchP), wantP})
			}
		}
		for i, v := range vs {
			if got := v.x.Len(); got != len(v.want) {
				t.Fatalf("version %d: Len = %d, want %d", i, got, len(v.want))
			}
			for id, w := range v.want {
				if got, ok := v.x.Get(id); !ok || got != w {
					t.Fatalf("version %d: Get(%d) = %+v, %v; want %+v", i, id, got, ok, w)
				}
				if _, ok := v.x.Get(id + 1); ok != (v.want[id+1] != JobView{}) {
					t.Fatalf("version %d: Get(%d) present = %v", i, id+1, ok)
				}
			}
			var ids []int
			v.x.Range(func(id int, got JobView) bool {
				if w, ok := v.want[id]; !ok || got != w {
					t.Fatalf("version %d: Range yields %d: %+v, want %+v (present %v)", i, id, got, w, ok)
				}
				ids = append(ids, id)
				return true
			})
			if len(ids) != len(v.want) || !sort.IntsAreSorted(ids) {
				t.Fatalf("version %d: Range visited %d of %d IDs, ascending %v", i, len(ids), len(v.want), sort.IntsAreSorted(ids))
			}
			visits, stopAt := 0, len(ids)/2+1
			v.x.Range(func(int, JobView) bool { visits++; return visits < stopAt })
			if len(ids) > 0 && visits != stopAt {
				t.Fatalf("version %d: Range made %d visits after being stopped at %d", i, visits, stopAt)
			}
			checkPred(t, i, v.p, v.wantP, ids)
		}
	})
}

// derivePred forks p and sets patch in the fork, as a forecast extension
// does; a nil p starts a fresh lineage.
func derivePred(p *forecastPred, patch map[int]int64) *forecastPred {
	next := p.fork()
	for id, t := range patch {
		next.set(id, t)
	}
	return &next
}

// checkPred holds one forecastPred version to its oracle: its size, every
// key and the key after it by get and by at, and an ascend over ids, the
// oracle's keys in ascending order, that also stops when told to.
func checkPred(t *testing.T, version int, p *forecastPred, want map[int]int64, ids []int) {
	t.Helper()
	if n := predContents(p); len(n) != len(want) || (p != nil && p.n != len(want)) {
		t.Fatalf("version %d: forecast holds %d predictions, want %d", version, len(n), len(want))
	}
	for id, w := range want {
		if got, ok := p.get(id); !ok || got != w || *p.at(id) != w {
			t.Fatalf("version %d: forecast get(%d) = %d, %v; want %d", version, id, got, ok, w)
		}
		if _, next := want[id+1]; (p.at(id+1) != nil) != next {
			t.Fatalf("version %d: forecast at(%d) present = %v", version, id+1, !next)
		}
	}
	var got []int
	p.ascend(func(id int, v int64) bool {
		if v != want[id] {
			t.Fatalf("version %d: ascend yields %d: %d, want %d", version, id, v, want[id])
		}
		got = append(got, id)
		return len(got) < len(ids)/2+1
	})
	if n := min(len(ids), len(ids)/2+1); !slices.Equal(got, ids[:n]) {
		t.Fatalf("version %d: ascend visited %v, want %v", version, got, ids[:n])
	}
}

// normalizeSnap projects a snapshot onto its comparable content, the
// waiting jobs' views as the queue walk yields them in pol's order, dropping
// the publication version (the full rebuild is never published, so its
// version lags by construction).
func normalizeSnap(s *Snapshot, pol sched.Policy) map[string]any {
	return map[string]any{
		"now":      s.Now,
		"simnow":   s.SimNow,
		"draining": s.Draining,
		"sched":    s.Scheduler,
		"procs":    s.Procs,
		"busy":     s.ProcsBusy,
		"pending":  s.Pending,
		"queued":   queueResponse(s, pol, nil).Queued,
		"running":  s.Running,
		"jobs":     indexContents(&s.Jobs),
		"counters": []int64{s.Submitted, s.Started, s.Resumed, s.Completed, s.Cancelled, s.Rejected},
		"util":     s.Utilization,
		"busyArea": s.BusyArea,
		"busyUpTo": s.BusyUpTo,
		"audit":    s.AuditViolations,
		"catSum":   s.CatSum,
		"catN":     s.CatN,
		"fqueued":  s.FQueued,
		"frunning": s.FRunning,
		"resv":     s.Resv,
	}
}

// buildSnapshot assembles a Snapshot of the current session state by
// rendering every job from scratch: the oracle TestDeltaSnapshotMatchesFull
// holds every patched publication to. It does not consume the touched-job
// set, which belongs to the publication lineage, and shares nothing with
// the published snapshots.
func (s *Server) buildSnapshot() *Snapshot {
	jobs := new(JobIndex)
	for _, info := range s.sess.Infos() {
		jobs.views.set(info.Job.ID, makeView(info, s.opts.Thresholds))
	}
	return s.assembleSnapshot(jobs, nil)
}

// forEachCell runs fn as a subtest per scheduler kind × policy.
func forEachCell(t *testing.T, fn func(t *testing.T, kind, policy string)) {
	for _, kind := range deltaKinds {
		t.Run(kind, func(t *testing.T) {
			for _, policy := range deltaPolicies {
				t.Run(policy, func(t *testing.T) { fn(t, kind, policy) })
			}
		})
	}
}

// driveMixedScenario drives s's session directly (Run never starts, so the
// calling goroutine owns the scheduler state exactly like the loop would)
// through a replay that leaves queued, running, suspended, done and
// cancelled jobs behind, calling check after every batch of mutations: the
// initial empty state, a long machine-wide job started alone — the one
// victim old enough for the preemptive scheduler to suspend once the short
// jobs behind it have waited ten times their length — then batches of
// arrivals with completions, mid-stream arrivals and cancels mixed in, and
// the backlog worked off in steps down to the terminal all-done state.
func driveMixedScenario(t *testing.T, s *Server, check func(step string)) {
	t.Helper()
	id := 0
	now := int64(0)
	submit := func(width int, runtime int64) {
		id++
		j := &job.Job{ID: id, Arrival: now, Runtime: runtime, Estimate: runtime + 30, Width: width}
		if err := s.sess.Submit(j); err != nil {
			t.Fatalf("submit %d: %v", id, err)
		}
		s.ctr.submitted++
	}
	advance := func() {
		t.Helper()
		if err := s.sess.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
	}

	check("initial")
	submit(8, 1500)
	advance()
	for round := 0; round < 24; round++ {
		for k := 0; k < 20; k++ {
			submit(1+(id*7)%8, int64(40+(id*13)%200))
		}
		advance()
		check(fmt.Sprintf("round %d arrivals", round))
		if round%3 == 1 {
			victim := id - 5
			if s.sess.Cancel(victim) {
				s.ctr.cancelled++
			}
			check(fmt.Sprintf("round %d cancel", round))
		}
		now += int64(60 + round%40)
		advance()
		check(fmt.Sprintf("round %d advance", round))
	}
	// Ever longer steps after the first sixteen, so that a job suspended
	// above is seen while it waits and again once it has resumed.
	for i, step := 0, int64(500); s.Current().Pending > 0; i++ {
		if i >= 16 {
			step *= 2
		}
		now += step
		advance()
		check(fmt.Sprintf("backlog to %d", now))
	}
}

// TestDeltaSnapshotMatchesFull is the serving-layer differential suite for
// delta publication (PERFORMANCE.md §6): after every batch of session
// mutations, the snapshot published by the delta path must be
// field-for-field identical to a from-scratch rebuild of the same state —
// job views re-rendered for starts, suspensions, resumptions, completions
// and cancellations, the Running views taken from the index, and the queue
// and forecast inputs — under every scheduler kind and policy.
func TestDeltaSnapshotMatchesFull(t *testing.T) {
	forEachCell(t, func(t *testing.T, kind, policy string) {
		s, err := New(Options{Procs: 8, Scheduler: kind, Policy: policy, Audit: true})
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			s.publish()
			delta := s.Current()
			full := s.buildSnapshot()
			if !reflect.DeepEqual(normalizeSnap(delta, s.pol), normalizeSnap(full, s.pol)) {
				t.Fatalf("%s: delta snapshot diverges from full rebuild\ndelta: %+v\nfull:  %+v",
					step, normalizeSnap(delta, s.pol), normalizeSnap(full, s.pol))
			}
		}
		driveMixedScenario(t, s, check)
		// Two machine-wide jobs on the idle machine: the second starts in the
		// batch in which the first completes, so the running set changes at
		// the same size and must not be carried over from the last snapshot.
		now, id := s.sess.Now(), int(s.ctr.submitted)
		for i := 1; i <= 2; i++ {
			if err := s.sess.Submit(&job.Job{ID: id + i, Arrival: now, Runtime: 100, Estimate: 100, Width: 8}); err != nil {
				t.Fatal(err)
			}
			s.ctr.submitted++
		}
		for _, at := range []int64{now, now + 100} {
			if err := s.sess.AdvanceTo(at); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("swap at %d", at))
			if r := s.Current().Running; len(r) != 1 || r[0].ID != id+1+int(at-now)/100 {
				t.Fatalf("swap at %d: running %+v, want job %d alone", at, r, id+1+int(at-now)/100)
			}
		}
		if kind == "preemptive:10" && s.Current().Resumed == 0 {
			t.Fatal("the preemptive scheduler never suspended and resumed a job; those re-renders went untested")
		}
		if s.Current().Completed == 0 {
			t.Fatal("scenario completed no jobs; the delta path was never stressed")
		}
	})
}

// TestPublishedQueuesNeverWritten holds every snapshot of a lineage of
// submission and cancellation bursts and checks, once the lineage has ended,
// that each FQueued still holds what it was published with and is capped at
// its length — the invariant that lets a publication whose batch only
// appended share its predecessor's array (publishedQueue). A scheduler that
// lends its queue must actually have shared, or the test proves nothing.
func TestPublishedQueuesNeverWritten(t *testing.T) {
	forEachCell(t, func(t *testing.T, kind, policy string) {
		s, err := New(Options{Procs: 8, Scheduler: kind, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		type held struct {
			snap *Snapshot
			jobs []*job.Job
		}
		var lineage []held
		publish := func() {
			s.publish()
			snap := s.Current()
			lineage = append(lineage, held{snap, slices.Clone(snap.FQueued)})
		}
		id := 0
		now := int64(0)
		submit := func(width int, runtime int64) {
			id++
			j := &job.Job{ID: id, Arrival: now, Runtime: runtime, Estimate: runtime + 30, Width: width}
			if err := s.sess.Submit(j); err != nil {
				t.Fatalf("submit %d: %v", id, err)
			}
			if err := s.sess.AdvanceTo(now); err != nil {
				t.Fatal(err)
			}
			publish()
		}
		submit(8, 5000) // the machine stays full while the queue churns
		for round := 0; round < 12; round++ {
			for k := 0; k < 8; k++ {
				submit(1+(id*5)%8, int64(50+(id*11)%300))
			}
			for k := 0; k < 4; k++ {
				if q := s.Current().FQueued; len(q) > 0 && s.sess.Cancel(q[(round+k*3)%len(q)].ID) {
					publish()
				}
			}
		}
		now = 1 << 20
		if err := s.sess.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
		publish()

		shared := 0
		for i, h := range lineage {
			q := h.snap.FQueued
			if cap(q) != len(q) {
				t.Fatalf("version %d: FQueued has cap %d beyond its length %d", h.snap.Version, cap(q), len(q))
			}
			if !slices.Equal(q, h.jobs) {
				t.Fatalf("version %d: FQueued was written after publication\nnow:       %v\npublished: %v", h.snap.Version, q, h.jobs)
			}
			if i > 0 && len(q) > 0 && len(lineage[i-1].jobs) > 0 && &q[0] == &lineage[i-1].snap.FQueued[0] {
				shared++
			}
		}
		if _, lends := s.inner.(sim.QueueLender).LendQueue(); lends && shared == 0 {
			t.Fatal("no publication shared its predecessor's queue; the in-place extension never ran")
		}
	})
}

// TestForecastChainMatchesFull is the differential suite for the
// incremental forecast chain (PERFORMANCE.md §6): at every state version —
// across arrival-only batches (the extension path), cancellations and
// completions (prefix breaks), and clock advances (origin changes) — the
// chained forecast must equal a from-scratch ForecastFromState over the same
// snapshot, and the chain must have actually engaged on the arrival-only
// batches or the test is vacuous.
func TestForecastChainMatchesFull(t *testing.T) {
	forEachCell(t, func(t *testing.T, kind, policy string) {
		s, err := New(Options{Procs: 8, Scheduler: kind, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		id := 0
		now := int64(0)
		submit := func(width int, runtime int64) {
			id++
			j := &job.Job{ID: id, Arrival: now, Runtime: runtime, Estimate: runtime + 30, Width: width}
			if err := s.sess.Submit(j); err != nil {
				t.Fatalf("submit %d: %v", id, err)
			}
			s.ctr.submitted++
		}
		check := func(step string) {
			t.Helper()
			s.publish()
			snap := s.Current()
			got := predContents(s.forecastFor(snap))
			want := sched.ForecastFromState(snap.Procs, snap.SimNow, snap.FRunning, snap.FQueued, s.pol, snap.Resv)
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: chained forecast diverges from full dry-run\nchained: %v\nfull:    %v", step, got, want)
			}
		}

		submit(8, 100000) // pin the machine
		if err := s.sess.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
		check("pin")
		for round := 0; round < 25; round++ {
			for k := 0; k < 7; k++ {
				submit(1+(id*5)%8, int64(50+(id*11)%300))
			}
			check(fmt.Sprintf("round %d arrivals", round))
			switch round % 4 {
			case 1: // cancel mid-queue: breaks the pointer prefix
				if s.sess.Cancel(id - 3) {
					s.ctr.cancelled++
				}
				check(fmt.Sprintf("round %d cancel", round))
			case 2: // advance the clock: moves the dry-run origin
				now += 40
				if err := s.sess.AdvanceTo(now); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("round %d advance", round))
			}
		}
		if extends := s.ins.fc[fcExtended].Load(); extends == 0 {
			t.Fatal("no forecast was served by extension; the chain never engaged")
		} else if s.DryRuns() <= extends {
			t.Fatal("every forecast extended; the fallback paths were never exercised")
		}
	})
}

// TestPublishCostFlatInHistory pins the point of the persistent index: the
// publication that carries one touched job allocates the same behind
// 100 000 jobs of history as behind 1 000 — but for the one index level,
// one node, that the larger IDs need.
func TestPublishCostFlatInHistory(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	measure := func(history int) (allocs, bytes float64) {
		s, touch := snapshotBenchServer(t, history, 512)
		const runs = 200
		var before, after runtime.MemStats
		for i := -10; i < runs; i++ { // ten warm-up rounds size the reused buffers
			touch()
			v := s.Current().Version
			runtime.ReadMemStats(&before)
			s.publish()
			runtime.ReadMemStats(&after)
			if s.Current().Version != v+1 {
				t.Fatal("a touched job was not published")
			}
			if i >= 0 {
				allocs += float64(after.Mallocs - before.Mallocs)
				bytes += float64(after.TotalAlloc - before.TotalAlloc)
			}
		}
		return allocs / runs, bytes / runs
	}
	a1, b1 := measure(1_000)
	a100, b100 := measure(100_000)
	t.Logf("one-job publication: %.2f allocs, %.0f B behind 1k jobs; %.2f allocs, %.0f B behind 100k", a1, b1, a100, b100)
	// Half an allocation of slack: the runtime's own background work lands
	// in the process-wide counters now and then.
	if a100 < a1-0.5 || a100 > a1+1.5 {
		t.Errorf("allocs per publication: %.2f behind 100k jobs of history, %.2f behind 1k; want at most one more", a100, a1)
	}
	if b100 < b1-256 || b100 > b1+512 { // a node is 288 bytes as allocated
		t.Errorf("bytes per publication: %.0f behind 100k jobs of history, %.0f behind 1k; want at most one node more", b100, b1)
	}
}

// TestPublicationCounters reads the publication counters where an operator
// does: one job patched per acknowledged submission or cancellation, a few
// index nodes copied for each, never a number that follows the history, and
// one queue copy per cancellation.
func TestPublicationCounters(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 4})
	defer func() {
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	}()
	h := s.Handler()
	const writes = 3000
	for i := 0; i < writes; i++ {
		var v JobView
		doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 4, Runtime: 1000}, &v)
		if i%3 == 2 {
			doJSON(t, h, "DELETE", fmt.Sprintf("/v1/jobs/%d", v.ID), nil, nil)
		}
	}
	body := debugStats(t, h)
	patched, copied := body.num(t, "counters.jobs_patched"), body.num(t, "counters.nodes_copied")
	if patched < writes+writes/3 || patched > 2*writes {
		t.Fatalf("jobs_patched = %.0f after %d submissions and %d cancellations", patched, writes, writes/3)
	}
	if ratio := copied / patched; ratio < 1 || ratio > 4 {
		t.Fatalf("nodes_copied ÷ jobs_patched = %.0f ÷ %.0f = %.1f, want 1–4", copied, patched, ratio)
	}
	// Submissions append to the published queue in place; each cancellation
	// takes a job from it, which only a copy can publish.
	if copies := body.num(t, "counters.publish_queue_copies"); copies != writes/3 {
		t.Fatalf("publish_queue_copies = %.0f after %d cancellations", copies, writes/3)
	}
}

// TestResponseBodyMemo pins the memoized read bodies: repeated GETs of an
// unchanged state must return byte-identical responses, those bytes must
// match what the uncached renderers produce, and a warm cache hit must not
// allocate (beyond the httptest plumbing, which is excluded by calling the
// body functions directly).
func TestResponseBodyMemo(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 16, Scheduler: "easy"})
	defer func() {
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	}()
	h := s.Handler()
	submit := func(body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewBufferString(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
		}
	}
	submit(`{"width":16,"runtime":100000}`)
	for i := 0; i < 20; i++ {
		submit(`{"width":4,"runtime":500}`)
	}

	get := func(path, wantType string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != wantType {
			t.Fatalf("GET %s Content-Type = %q, want %q", path, ct, wantType)
		}
		return rec.Body.Bytes()
	}

	q1 := get("/v1/queue", "application/json")
	q2 := get("/v1/queue", "application/json")
	if !bytes.Equal(q1, q2) {
		t.Fatal("two /v1/queue reads of one version returned different bytes")
	}
	snap := s.Current()
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, queueResponse(snap, s.pol, s.forecastFor(snap)))
	if !bytes.Equal(q1, rec.Body.Bytes()) {
		t.Fatalf("cached queue body diverges from uncached render:\ncached:   %s\nuncached: %s", q1, rec.Body.Bytes())
	}

	m1 := get("/metrics", "text/plain; version=0.0.4")
	m2 := get("/metrics", "text/plain; version=0.0.4")
	if !bytes.Equal(m1, m2) {
		t.Fatal("two /metrics scrapes of one version returned different bytes")
	}
	var buf bytes.Buffer
	WriteMetrics(&buf, snap)
	if !bytes.Equal(m1, buf.Bytes()) {
		t.Fatal("cached metrics body diverges from uncached render")
	}

	// Warm-hit alloc pins: serving a cached body is a pointer load plus a
	// done sync.Once, so it must not allocate at all.
	if avg := testing.AllocsPerRun(100, func() {
		if len(s.queueBody(snap)) == 0 {
			t.Fatal("lost queue body")
		}
	}); avg != 0 {
		t.Fatalf("warm queueBody allocates %.1f times per read, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if len(metricsBody(snap)) == 0 {
			t.Fatal("lost metrics body")
		}
	}); avg != 0 {
		t.Fatalf("warm metricsBody allocates %.1f times per read, want 0", avg)
	}
}

// TestStaleReaderBody holds a reader of version v, once v+1 is published
// and read, to v's own bodies: what encoding/json writes for v, memoized in
// v (a second read returns the same array), with v+1's bodies untouched.
func TestStaleReaderBody(t *testing.T) {
	s, touch := snapshotBenchServer(t, 10, 32)
	old := s.Current()
	touch()
	s.publish()
	cur := s.Current()
	if cur.Version != old.Version+1 {
		t.Fatalf("versions %d then %d, want consecutive", old.Version, cur.Version)
	}
	curQ, curM := s.queueBody(cur), metricsBody(cur)

	q, m := s.queueBody(old), metricsBody(old)
	want, err := json.Marshal(queueResponse(old, s.pol, s.forecastFor(old)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q, append(want, '\n')) {
		t.Fatalf("v%d's queue body diverges from encoding/json\n got: %s\nwant: %s", old.Version, q, want)
	}
	var buf bytes.Buffer
	WriteMetrics(&buf, old)
	if !bytes.Equal(m, buf.Bytes()) {
		t.Fatalf("v%d's metrics body diverges from WriteMetrics", old.Version)
	}
	if &s.queueBody(old)[0] != &q[0] || &metricsBody(old)[0] != &m[0] {
		t.Fatalf("a second read of v%d rendered again", old.Version)
	}
	if &s.queueBody(cur)[0] != &curQ[0] || &metricsBody(cur)[0] != &curM[0] || bytes.Equal(curQ, q) {
		t.Fatalf("reading v%d changed v%d's bodies", old.Version, cur.Version)
	}
}

// TestFirstReadersShareBody has readers of one fresh version start at once:
// every one gets the same backing array for each body, so one render was
// kept.
func TestFirstReadersShareBody(t *testing.T) {
	s, touch := snapshotBenchServer(t, 10, 64)
	touch()
	s.publish()
	snap := s.Current()
	const readers = 8
	var qs, ms [readers][]byte
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			qs[r], ms[r] = s.queueBody(snap), metricsBody(snap)
		}()
	}
	close(start)
	wg.Wait()
	for r := range readers {
		if &qs[r][0] != &qs[0][0] || &ms[r][0] != &ms[0][0] {
			t.Fatalf("reader %d got its own render of v%d", r, snap.Version)
		}
	}
}

// TestSnapshotSize pins a snapshot in the 448-byte size class: every
// publication allocates one, read or not.
func TestSnapshotSize(t *testing.T) {
	if got := unsafe.Sizeof(Snapshot{}); got > 432 {
		t.Fatalf("a Snapshot is %d bytes, want at most 432", got)
	}
}
