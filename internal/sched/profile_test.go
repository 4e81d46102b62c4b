package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
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
