package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestNewProfileAllFree(t *testing.T) {
	p := NewProfile(64)
	if p.Procs() != 64 {
		t.Fatalf("Procs = %d", p.Procs())
	}
	for _, tt := range []int64{0, 1, 1000, 1 << 40} {
		if got := p.FreeAt(tt); got != 64 {
			t.Fatalf("FreeAt(%d) = %d, want 64", tt, got)
		}
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestNewProfilePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProfile(0)
}

func TestReserveAndFreeAt(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(100, 50, 4) // [100,150) uses 4
	cases := []struct {
		t    int64
		want int
	}{
		{0, 10}, {99, 10}, {100, 6}, {149, 6}, {150, 10}, {200, 10},
	}
	for _, tc := range cases {
		if got := p.FreeAt(tc.t); got != tc.want {
			t.Errorf("FreeAt(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlappingReservations(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(0, 100, 3)
	p.Reserve(50, 100, 3) // overlap in [50,100)
	if got := p.FreeAt(75); got != 4 {
		t.Fatalf("FreeAt(75) = %d, want 4", got)
	}
	if got := p.FreeAt(25); got != 7 {
		t.Fatalf("FreeAt(25) = %d, want 7", got)
	}
	if got := p.FreeAt(120); got != 7 {
		t.Fatalf("FreeAt(120) = %d, want 7", got)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveReleaseRoundTrip(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(10, 20, 5)
	p.Release(10, 20, 5)
	if p.NumPoints() != 1 {
		t.Fatalf("points = %d, want fully coalesced 1", p.NumPoints())
	}
	if p.FreeAt(15) != 10 {
		t.Fatal("round trip did not restore capacity")
	}
}

func TestReservePanicsOnOversubscription(t *testing.T) {
	p := NewProfile(4)
	p.Reserve(0, 10, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on oversubscription")
		}
	}()
	p.Reserve(5, 10, 2)
}

func TestReleasePanicsBeyondCapacity(t *testing.T) {
	p := NewProfile(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	p.Release(0, 10, 1)
}

func TestAdjustPanicsOnBadArgs(t *testing.T) {
	p := NewProfile(4)
	for _, f := range []func(){
		func() { p.Reserve(0, 0, 1) },
		func() { p.Reserve(0, -5, 1) },
		func() { p.Reserve(0, 5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMinFree(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(100, 50, 4)
	p.Reserve(200, 50, 9)
	cases := []struct {
		from, dur int64
		want      int
	}{
		{0, 50, 10},
		{0, 101, 6},  // touches [100,150)
		{0, 100, 10}, // stops exactly at 100
		{100, 50, 6},
		{100, 150, 1}, // spans both reservations
		{150, 50, 10}, // gap between them
		{250, 1000, 10},
		{150, 0, 10}, // zero duration = instant query
	}
	for _, tc := range cases {
		if got := p.MinFree(tc.from, tc.dur); got != tc.want {
			t.Errorf("MinFree(%d,%d) = %d, want %d", tc.from, tc.dur, got, tc.want)
		}
	}
}

func TestFitsAt(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(100, 50, 4)
	if !p.FitsAt(0, 100, 10) {
		t.Error("should fit before the reservation")
	}
	if p.FitsAt(0, 101, 7) {
		t.Error("7 wide should not fit across the reservation")
	}
	if !p.FitsAt(50, 200, 6) {
		t.Error("6 wide fits everywhere")
	}
}

func TestFindStartImmediate(t *testing.T) {
	p := NewProfile(10)
	if got := p.FindStart(5, 100, 10); got != 5 {
		t.Fatalf("FindStart on empty profile = %d, want 5", got)
	}
}

func TestFindStartAfterBusyPeriod(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(0, 100, 8) // only 2 free until t=100
	if got := p.FindStart(0, 50, 4); got != 100 {
		t.Fatalf("FindStart = %d, want 100", got)
	}
	if got := p.FindStart(0, 50, 2); got != 0 {
		t.Fatalf("narrow job should start now, got %d", got)
	}
}

func TestFindStartHole(t *testing.T) {
	// Busy [0,100) and [200,300); a hole [100,200) takes a job of dur<=100.
	p := NewProfile(10)
	p.Reserve(0, 100, 8)
	p.Reserve(200, 100, 8)
	if got := p.FindStart(0, 100, 4); got != 100 {
		t.Fatalf("job fitting the hole: FindStart = %d, want 100", got)
	}
	if got := p.FindStart(0, 101, 4); got != 300 {
		t.Fatalf("job too long for the hole: FindStart = %d, want 300", got)
	}
}

func TestFindStartFromInsideBusy(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(0, 100, 8)
	if got := p.FindStart(50, 10, 4); got != 100 {
		t.Fatalf("FindStart = %d, want 100", got)
	}
}

func TestFindStartExactFit(t *testing.T) {
	p := NewProfile(8)
	p.Reserve(0, 100, 8)
	// Machine totally busy; an 8-wide job starts exactly at 100.
	if got := p.FindStart(0, 10, 8); got != 100 {
		t.Fatalf("FindStart = %d, want 100", got)
	}
}

func TestFindStartPanicsOnTooWide(t *testing.T) {
	p := NewProfile(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.FindStart(0, 10, 9)
}

func TestFindStartDegenerateArgs(t *testing.T) {
	p := NewProfile(8)
	// Zero/negative width and duration are clamped to 1.
	if got := p.FindStart(7, 0, 0); got != 7 {
		t.Fatalf("FindStart with degenerate args = %d, want 7", got)
	}
}

func TestTrim(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(0, 100, 4)
	p.Reserve(200, 100, 6)
	p.Trim(150)
	if p.FreeAt(150) != 10 || p.FreeAt(250) != 4 || p.FreeAt(350) != 10 {
		t.Fatal("Trim changed future values")
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	p.Trim(250) // first point becomes mid-reservation
	if p.FreeAt(250) != 4 || p.FreeAt(300) != 10 {
		t.Fatal("second Trim changed future values")
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := NewProfile(10)
	p.Reserve(0, 100, 4)
	c := p.Clone()
	c.Reserve(0, 100, 4)
	if p.FreeAt(50) != 6 {
		t.Fatal("clone shares state with original")
	}
	if c.FreeAt(50) != 2 {
		t.Fatal("clone did not record its own reservation")
	}
}

// TestProfileRandomOpsInvariants drives the profile with random reserve /
// release / trim sequences (releases only of windows previously reserved),
// checking structural invariants and consistency with a brute-force model.
func TestProfileRandomOpsInvariants(t *testing.T) {
	r := stats.NewRNG(31)
	type window struct {
		from, dur int64
		width     int
	}
	const procs = 32
	const horizon = 1000
	for trial := 0; trial < 200; trial++ {
		p := NewProfile(procs)
		model := make([]int, horizon) // in-use per second
		var live []window
		for op := 0; op < 60; op++ {
			switch {
			case len(live) > 0 && r.Bool(0.35):
				// Release a random live window.
				i := r.Intn(len(live))
				w := live[i]
				live = append(live[:i], live[i+1:]...)
				p.Release(w.from, w.dur, w.width)
				for s := w.from; s < w.from+w.dur; s++ {
					model[s] -= w.width
				}
			default:
				from := int64(r.Intn(horizon / 2))
				dur := int64(r.Intn(horizon/2-1) + 1)
				width := r.Intn(procs) + 1
				if p.MinFree(from, dur) < width {
					continue // would oversubscribe; skip
				}
				p.Reserve(from, dur, width)
				live = append(live, window{from, dur, width})
				for s := from; s < from+dur; s++ {
					model[s] += width
				}
			}
			if err := p.Check(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
			// Spot-check agreement with the brute-force model.
			for k := 0; k < 8; k++ {
				at := int64(r.Intn(horizon))
				if got, want := p.FreeAt(at), procs-model[at]; got != want {
					t.Fatalf("trial %d op %d: FreeAt(%d) = %d, model says %d", trial, op, at, got, want)
				}
			}
		}
	}
}

// TestFindStartAgainstBruteForce compares FindStart with a per-second
// brute-force search on random profiles.
func TestFindStartAgainstBruteForce(t *testing.T) {
	r := stats.NewRNG(37)
	const procs = 16
	const horizon = 400
	for trial := 0; trial < 300; trial++ {
		p := NewProfile(procs)
		model := make([]int, horizon)
		// Random feasible reservations.
		for k := 0; k < 10; k++ {
			from := int64(r.Intn(horizon / 2))
			dur := int64(r.Intn(horizon/3) + 1)
			width := r.Intn(procs) + 1
			if p.MinFree(from, dur) < width {
				continue
			}
			p.Reserve(from, dur, width)
			for s := from; s < from+dur; s++ {
				model[s] += width
			}
		}
		from := int64(r.Intn(horizon / 2))
		dur := int64(r.Intn(horizon/4) + 1)
		width := r.Intn(procs) + 1

		got := p.FindStart(from, dur, width)

		want := int64(-1)
	search:
		for s := from; s < horizon; s++ {
			for u := s; u < s+dur; u++ {
				inUse := 0
				if u < horizon {
					inUse = model[u]
				}
				if procs-inUse < width {
					continue search
				}
			}
			want = s
			break
		}
		if want == -1 {
			// Feasible only at/after the horizon where the model is empty:
			// FindStart must return something >= horizon start of free tail.
			if got < int64(0) {
				t.Fatalf("trial %d: negative start", trial)
			}
			continue
		}
		if got != want {
			t.Fatalf("trial %d: FindStart(from=%d,dur=%d,w=%d) = %d, brute force %d", trial, from, dur, width, got, want)
		}
	}
}

func TestProfileQuickReserveFindStartConsistent(t *testing.T) {
	// Property: whatever FindStart returns is actually feasible, and no
	// earlier instant in [from, result) is.
	r := stats.NewRNG(41)
	f := func(nres uint8) bool {
		p := NewProfile(16)
		for k := 0; k < int(nres%12); k++ {
			from := int64(r.Intn(200))
			dur := int64(r.Intn(100) + 1)
			width := r.Intn(16) + 1
			if p.MinFree(from, dur) >= width {
				p.Reserve(from, dur, width)
			}
		}
		from := int64(r.Intn(200))
		dur := int64(r.Intn(100) + 1)
		width := r.Intn(16) + 1
		s := p.FindStart(from, dur, width)
		if s < from {
			return false
		}
		if !p.FitsAt(s, dur, width) {
			return false
		}
		// The instant just before s (if >= from) must not fit — otherwise
		// FindStart was not the earliest. (Check one instant only: full
		// minimality is covered by the brute-force test.)
		if s > from && p.FitsAt(s-1, dur, width) {
			return false
		}
		return p.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperScaleProfilesStayBelowIndexThreshold is why indexMinPoints is what
// it is (DESIGN.md §9): on a paper-scale trace the three schedulers that keep
// a persistent profile never hold a step function long enough for the block
// summaries to pay for their rebuild. 1 000 CTC jobs at load 0.85 with
// user-like estimates, the profile's size sampled after every event: about
// 35 points on average and 70 at most when the threshold was chosen.
func TestPaperScaleProfilesStayBelowIndexThreshold(t *testing.T) {
	m, err := workload.NewCTC(0.85)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.Generate(1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	jobs = workload.ApplyEstimates(jobs, workload.Actual{}, 43)
	for _, kind := range []string{"conservative", "slack:1", "selective:2"} {
		mk, err := MakerFor(kind, FCFS{})
		if err != nil {
			t.Fatal(err)
		}
		sch := mk(m.Procs)
		var eng *resvEngine
		switch s := sch.(type) {
		case *Conservative:
			eng = &s.resvEngine
		case *SlackBased:
			eng = &s.resvEngine
		case *Selective:
			eng = &s.resvEngine
		default:
			t.Fatalf("%s is a %T, not a shell over resvEngine", kind, sch)
		}
		ss, err := sim.Open(sim.Machine{Procs: m.Procs}, sch, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if err := ss.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		samples, sum, max := 0, 0, 0
		for {
			ok, err := ss.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n := eng.profile.NumPoints()
			samples++
			sum += n
			if n > max {
				max = n
			}
		}
		if _, err := ss.Finish(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d samples, mean %.1f points, max %d", kind, samples, float64(sum)/float64(samples), max)
		if samples < len(jobs) || max == 0 || max >= indexMinPoints {
			t.Errorf("%s: max %d points over %d samples, want 0 < max < indexMinPoints = %d", kind, max, samples, indexMinPoints)
		}
	}
}

// TestIndexValidPrefixAfterMutation pins the partial index rebuild: after
// each kind of mutation the count of leading block summaries a rebuild will
// keep reaches no further than the first block whose points changed — and,
// for the mutations that say where they landed, exactly that far, or the
// rebuild is a full one under another name.
func TestIndexValidPrefixAfterMutation(t *testing.T) {
	const procs = 16
	fresh := func() *Profile {
		p := NewProfile(procs)
		for i := int64(0); i < 300; i++ {
			p.Reserve(100+i*10, 10, 1+int(i%3)) // back to back: never a whole machine free
		}
		p.Trim(100)
		p.FindStart(100, 1, procs) // crosses every block: builds the index
		if nb := (p.NumPoints() + blockSize - 1) >> blockBits; !p.idxOK || p.idxValid != nb || nb < 8 {
			t.Fatalf("index not built: ok %v, %d of %d blocks valid", p.idxOK, p.idxValid, nb)
		}
		return p
	}
	for _, tc := range []struct {
		name   string
		mutate func(p *Profile) *Profile // returns the profile to inspect
		exact  bool                      // the marker must sit at the first changed block, not below it
	}{
		{"reserve at the tail", func(p *Profile) *Profile { p.Reserve(3050, 7, 4); return p }, true},
		{"reserve mid-profile", func(p *Profile) *Profile { p.Reserve(1103, 40, 2); return p }, true},
		{"release merging points away", func(p *Profile) *Profile { p.Release(1500, 10, 2); return p }, true},
		{"reserve beyond the last point", func(p *Profile) *Profile { p.Reserve(5000, 10, 1); return p }, true},
		{"reserve extending the front", func(p *Profile) *Profile { p.Reserve(40, 10, 3); return p }, true},
		{"trim", func(p *Profile) *Profile { p.Trim(1000); return p }, false},
		{"reset", func(p *Profile) *Profile { p.Reset(); return p }, false},
		{"clone", func(p *Profile) *Profile { return p.Clone() }, false},
	} {
		p := fresh()
		before := append([]point(nil), p.points...)
		q := tc.mutate(p)
		changed := 0
		for changed < len(before) && changed < len(q.points) && before[changed] == q.points[changed] {
			changed++
		}
		first := changed >> blockBits
		if q == p && q.idxOK {
			t.Errorf("%s: index still marked current", tc.name)
		}
		if q.idxValid > first || (tc.exact && q.idxValid != first) {
			t.Errorf("%s: %d leading blocks kept, first changed point %d is in block %d", tc.name, q.idxValid, changed, first)
		}
		if err := q.Check(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		q.FindStart(q.points[0].T, 1, procs)
		if err := q.Check(); err != nil {
			t.Errorf("%s, after the rebuild: %v", tc.name, err)
		}
	}
}

// TestStaleSummariesWaitForTwoBlocks pins where a query on a long profile
// whose block summaries a mutation left stale turns to them: past the end of
// the block after the one it starts in, not before. A scan that finds its
// answer on the last point within that limit leaves the summaries stale; one
// that needs the first point beyond it rebuilds them. Both the violation
// search (a window that ends there) and the skip-ahead (the only point wide
// enough sits there) are held to the same boundary.
func TestStaleSummariesWaitForTwoBlocks(t *testing.T) {
	const procs, from = 16, 32 // from: the first point of block 1
	limit := (from>>blockBits + 2) << blockBits
	// build holds 300 back-to-back windows of 2–4 processors, except that the
	// one starting at point wide holds 1: that point alone has 15 free.
	build := func(wide int) *Profile {
		p := NewProfile(procs)
		for k := int64(0); k < 300; k++ {
			w := 2 + int(k%3)
			if k == int64(wide) {
				w = 1
			}
			p.Reserve(100+k*10, 10, w)
		}
		p.Trim(100)
		if p.idxOK || p.NumPoints() < indexMinPoints {
			t.Fatalf("%d points, summaries current %v: want a long profile with stale summaries", p.NumPoints(), p.idxOK)
		}
		return p
	}
	for _, at := range []int{limit - 1, limit} {
		p := build(at)
		t0 := p.points[from].T
		if got := p.FindStart(t0, p.points[at].T-t0, 12); got != t0 || p.idxOK != (at == limit) {
			t.Errorf("a window from point %d to point %d: start %d (want %d), summaries rebuilt %v, want %v",
				from, at, got, t0, p.idxOK, at == limit)
		}
		p = build(at)
		if got := p.FindStart(t0, 1, 15); got != p.points[at].T || p.idxOK != (at == limit) {
			t.Errorf("the skip-ahead from point %d to point %d: start %d (want %d), summaries rebuilt %v, want %v",
				from, at, got, p.points[at].T, p.idxOK, at == limit)
		}
		if err := p.Check(); err != nil {
			t.Error(err)
		}
	}
}
