package sched

import (
	"testing"

	"repro/internal/stats"
)

// naiveProfile is the reference implementation the indexed Profile is
// differentially fuzzed against: the same step-function semantics written
// in the most obvious way — full-pass splits, full-pass coalescing,
// point-by-point scans, and no index. Every operation the real Profile
// accelerates is re-answered here by brute force.
type naiveProfile struct {
	procs  int
	points []point
}

func newNaiveProfile(procs int) *naiveProfile {
	return &naiveProfile{procs: procs, points: []point{{T: 0, Free: procs}}}
}

// split ensures a point exists at exactly t.
func (n *naiveProfile) split(t int64) {
	if t <= n.points[0].T {
		if t < n.points[0].T {
			n.points = append([]point{{T: t, Free: n.points[0].Free}}, n.points...)
		}
		return
	}
	for i := len(n.points) - 1; i >= 0; i-- {
		if n.points[i].T == t {
			return
		}
		if n.points[i].T < t {
			n.points = append(n.points, point{})
			copy(n.points[i+2:], n.points[i+1:])
			n.points[i+1] = point{T: t, Free: n.points[i].Free}
			return
		}
	}
}

func (n *naiveProfile) adjust(from, dur int64, delta int) {
	end := from + dur
	n.split(from)
	n.split(end)
	for i := range n.points {
		if n.points[i].T >= from && n.points[i].T < end {
			n.points[i].Free += delta
		}
	}
	out := n.points[:1]
	for _, pt := range n.points[1:] {
		if pt.Free != out[len(out)-1].Free {
			out = append(out, pt)
		}
	}
	n.points = out
}

func (n *naiveProfile) minFree(from, dur int64) int {
	m := n.points[0].Free
	for _, pt := range n.points {
		if pt.T > from {
			break
		}
		m = pt.Free
	}
	end := from + dur
	for _, pt := range n.points {
		if pt.T > from && pt.T < end && pt.Free < m {
			m = pt.Free
		}
	}
	return m
}

func (n *naiveProfile) findStart(from, dur int64, width int) int64 {
	if width < 1 {
		width = 1
	}
	if dur < 1 {
		dur = 1
	}
	if n.minFree(from, dur) >= width {
		return from
	}
	for _, pt := range n.points {
		if pt.T <= from {
			continue
		}
		if n.minFree(pt.T, dur) >= width {
			return pt.T
		}
	}
	// Unreachable for finite reservations: the tail always has all
	// processors free.
	return n.points[len(n.points)-1].T
}

func (n *naiveProfile) trim(now int64) {
	i := 0
	for k, pt := range n.points {
		if pt.T <= now {
			i = k
		}
	}
	if i == 0 {
		return
	}
	n.points = n.points[i:]
	if n.points[0].T < now {
		n.points[0].T = now
	}
}

// earlierStart is the oracle for Profile.EarlierStart: actually release
// the window on a scratch copy, re-run findStart, and clamp at limit —
// exactly the round trip the compression loops used to pay.
func (n *naiveProfile) earlierStart(from, limit, dur int64, width int) int64 {
	c := &naiveProfile{procs: n.procs, points: append([]point(nil), n.points...)}
	c.adjust(limit, dur, width)
	s := c.findStart(from, dur, width)
	if s > limit {
		s = limit
	}
	return s
}

// FuzzProfileEquivalence drives the indexed Profile and the naive
// reference through the same randomized op stream and fails on any
// divergence — in query answers, in the resulting step function, or in
// the structural invariants check() enforces. Reserve widths are small
// relative to the op count so long streams push the profile past
// indexMinPoints and exercise the block-summary paths, not just the
// short-scan fallbacks.
func FuzzProfileEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 50, 3, 0, 40, 80, 2, 2, 5, 100, 4})
	f.Add([]byte{0, 0, 1, 1, 1, 0, 1, 1, 4, 8, 1, 1})
	f.Add([]byte{5, 20, 30, 2, 0, 20, 30, 2, 5, 20, 30, 2, 3, 0, 200, 1})
	// A long alternating stream that grows the profile well past
	// indexMinPoints, so the indexed query paths run against the naive
	// answers rather than the small-profile linear fallbacks.
	long := make([]byte, 0, 4*3*256)
	for i := 0; i < 256; i++ {
		long = append(long,
			0, byte(i), byte(i%37+1), byte(i%5+1), // reserve
			2, byte(255-i), byte(i%53+1), byte(i%7+1), // findstart
			byte(3+i%3), byte(i), byte(i%29+1), byte(i%5+1), // query/trim/earlier
		)
	}
	f.Add(long)
	// A profile grown past indexMinPoints and never trimmed, then reserved
	// into and released from all along its length with a query that crosses
	// every block after each: each rebuild starts from a different block,
	// and check() holds the summaries it keeps to the points.
	kept := make([]byte, 0, 4*(200+4*64))
	for i := 0; i < 200; i++ {
		kept = append(kept, 0, byte(i), byte(i%7+1), byte(i%3)) // reserve
	}
	for i := 0; i < 64; i++ {
		kept = append(kept,
			2, 0, 199, 15, // findstart: the whole machine, from the front
			0, byte(i*37), byte(i%5+1), 0, // reserve
			2, 0, 199, byte(i), // findstart
			1, 0, 0, 0, // release
		)
	}
	f.Add(kept)
	f.Fuzz(func(t *testing.T, data []byte) {
		const procs = 16
		p := NewProfile(procs)
		n := newNaiveProfile(procs)
		type window struct {
			from, dur int64
			width     int
		}
		var live []window
		r := stats.NewRNG(1)
		for i := 0; i+3 < len(data); i += 4 {
			op := data[i] % 6
			from := int64(data[i+1]) * 16
			dur := int64(data[i+2]%200) + 1
			width := int(data[i+3]%procs) + 1
			switch op {
			case 0: // reserve if feasible
				if got, want := p.MinFree(from, dur), n.minFree(from, dur); got != want {
					t.Fatalf("op %d: MinFree(%d,%d) = %d, naive %d", i, from, dur, got, want)
				}
				if n.minFree(from, dur) >= width {
					p.Reserve(from, dur, width)
					n.adjust(from, dur, -width)
					live = append(live, window{from, dur, width})
				}
			case 1: // release a live window
				if len(live) > 0 {
					k := r.Intn(len(live))
					w := live[k]
					live = append(live[:k], live[k+1:]...)
					p.Release(w.from, w.dur, w.width)
					n.adjust(w.from, w.dur, w.width)
				}
			case 2: // find a start
				got := p.FindStart(from, dur, width)
				want := n.findStart(from, dur, width)
				if got != want {
					t.Fatalf("op %d: FindStart(%d,%d,%d) = %d, naive %d", i, from, dur, width, got, want)
				}
			case 3: // point queries
				if got, want := p.FreeAt(from), n.minFree(from, 0); got != want {
					t.Fatalf("op %d: FreeAt(%d) = %d, naive %d", i, from, got, want)
				}
				if got, want := p.MinFree(from, dur), n.minFree(from, dur); got != want {
					t.Fatalf("op %d: MinFree(%d,%d) = %d, naive %d", i, from, dur, got, want)
				}
			case 4: // trim, abandoning windows that begin in the past
				p.Trim(from)
				n.trim(from)
				kept := live[:0]
				for _, w := range live {
					if w.from >= from {
						kept = append(kept, w)
					}
				}
				live = kept
			case 5: // EarlierStart against the release-and-refind oracle
				if len(live) > 0 {
					w := live[r.Intn(len(live))]
					f0 := p.points[0].T
					got := p.EarlierStart(f0, w.from, w.dur, w.width)
					want := n.earlierStart(f0, w.from, w.dur, w.width)
					if got != want {
						t.Fatalf("op %d: EarlierStart(%d,%d,%d,%d) = %d, oracle %d",
							i, f0, w.from, w.dur, w.width, got, want)
					}
				}
			}
			if err := p.Check(); err != nil {
				t.Fatalf("op %d: profile invariant broken: %v", i, err)
			}
			if len(p.points) != len(n.points) {
				t.Fatalf("op %d: %d points, naive %d", i, len(p.points), len(n.points))
			}
			for k := range p.points {
				if p.points[k] != n.points[k] {
					t.Fatalf("op %d: point %d = %+v, naive %+v", i, k, p.points[k], n.points[k])
				}
			}
		}
	})
}
