package sched

import (
	"slices"
	"testing"

	"repro/internal/job"
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

func (n *naiveProfile) clone() *naiveProfile {
	return &naiveProfile{procs: n.procs, points: slices.Clone(n.points)}
}

// moveWindow moves a reserved window from old to start on p with move,
// from step index at, and on n by release and reserve, and fails unless
// Release + Reserve on a clone of p gives the same points.
func moveWindow(t *testing.T, op int, p *Profile, n *naiveProfile, at int, old, start, dur int64, width int) {
	t.Helper()
	c := p.Clone()
	c.Release(old, dur, width)
	c.Reserve(start, dur, width)
	p.move(at, old, start, dur, width)
	if !slices.Equal(p.points, c.points) {
		t.Fatalf("op %d: moving [%d,+%d)x%d to %d from index %d gives %v, Release + Reserve %v",
			op, old, dur, width, start, at, p.points, c.points)
	}
	n.adjust(old, dur, width)
	n.adjust(start, dur, -width)
}

// decodeRunners is op 7's running set: count = op byte >> 3 mod 6 runners,
// runner k with width 1 + k%3 and its planned end (offset-2)·8 after now,
// the offset being bits 3k..3k+2 of the op's last two bytes. Ends repeat
// and fall at or before now often. The list is in shadow order.
func decodeRunners(op, hi, lo byte, now int64) []runInfo {
	bits := int(hi)<<8 | int(lo)
	var rs []runInfo
	for k := 0; k < int(op>>3)%6; k++ {
		end := now + int64((bits>>(3*k))&7-2)*8
		rs = insertRunner(rs, runInfo{j: &job.Job{ID: k + 1, Width: 1 + k%3}, start: now, estEnd: end})
	}
	return rs
}

// FuzzProfileEquivalence drives Profile and the naive reference through
// the same randomized op stream and fails on any divergence — in query
// answers, in the resulting step function, or in the structural invariants
// check() enforces. Reserve widths are small relative to the op count so
// long streams grow profiles of hundreds of points, whose queries are long
// linear scans. An op byte below 0x80 selects one of ops 0–7 by its low
// three bits; one from 0x80 selects op 8 or 9 by its lowest, so the older
// seeds keep their meaning.
func FuzzProfileEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 50, 3, 0, 40, 80, 2, 2, 5, 100, 4})
	f.Add([]byte{0, 0, 1, 1, 1, 0, 1, 1, 4, 8, 1, 1})
	f.Add([]byte{5, 20, 30, 2, 0, 20, 30, 2, 5, 20, 30, 2, 3, 0, 200, 1})
	// A long alternating stream that grows the profile to hundreds of
	// points, so long scans run against the naive answers.
	long := make([]byte, 0, 4*3*256)
	for i := 0; i < 256; i++ {
		long = append(long,
			0, byte(i), byte(i%37+1), byte(i%5+1), // reserve
			2, byte(255-i), byte(i%53+1), byte(i%7+1), // findstart
			byte(3+i%3), byte(i), byte(i%29+1), byte(i%5+1), // query/trim/earlier
		)
	}
	f.Add(long)
	// A long profile never trimmed, then reserved into and released from
	// all along its length with a query that crosses the whole of it after
	// each, so every mutation is followed by a scan through its points.
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
	// Fit-now probes for the whole machine behind a window over [160, 211):
	// from the window's first step, none fits and the next step is 211.
	f.Add([]byte{0, 10, 50, 3, 6, 10, 50, 0x4f, 6, 10, 50, 0x5f, 6, 10, 50, 0x3f, 6, 10, 50, 0xff})
	// One-pass builds: two runners ending together after now=64; the same
	// at now=0; three runners of which two end at or before now; none.
	f.Add([]byte{0, 10, 50, 3, 23, 4, 0, 27, 2, 4, 20, 15, 23, 0, 0, 27, 31, 4, 0, 11, 2, 0, 20, 15, 7, 4, 0, 0})
	// Ten staircases of 16 points one time unit apart, the first five with
	// no point whose whole machine is free, then long searches across them
	// (one a skip-ahead for the whole machine over the first five), a
	// reservation at the sixth, a long MinFree and a fit-now probe.
	stairs := make([]byte, 0, 4*(155+7))
	for seg := byte(0); seg < 10; seg++ {
		for d := byte(0); d < 16 && (seg < 5 || d < 15); d++ {
			stairs = append(stairs, 0, seg, d, 0)
		}
	}
	stairs = append(stairs, 2, 5, 199, 0, 2, 5, 199, 0, 0, 5, 0, 0, 2, 6, 49, 0, 2, 0, 1, 15, 3, 5, 199, 0, 6, 5, 199, 0xf0)
	f.Add(stairs)
	// Window moves and credited probes: two windows overlapping a third,
	// each moved later and back earlier past it, then probes crediting each
	// window to a job that fits only once one is gone; the windows meet at
	// the probes' limits, so a credit that ran past its end would show.
	f.Add([]byte{0, 0, 40, 9, 0, 2, 40, 7, 0, 4, 40, 6, 0x80, 3, 0, 0, 0x80, 0, 0, 0, 0x81, 0, 30, 9, 0x81, 1, 30, 13,
		5, 0, 0, 0, 0x81, 0, 100, 9, 0x80, 8, 0, 0, 0x81, 0, 60, 15})
	// The whole machine held over [0, 63) and a window at 64: it can move
	// to 63, the point a failed first search stops at, one short of its
	// start.
	f.Add([]byte{0, 0, 62, 15, 0, 4, 39, 3, 5, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0})
	// A fit-now probe from 288 for 8 of 16 processors over 100: enough are
	// free at 288, but a window of 10 over [320, 370) leaves 6, so the job
	// does not fit and the next step is 320, before the violation's end
	// and the naive start at 370.
	f.Add([]byte{0, 20, 49, 9, 6, 18, 99, 7})
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
			op := data[i] % 8
			if data[i] >= 0x80 {
				op = 8 + data[i]%2
			}
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
			case 2: // find a start, and reserve it on copies from the index the search hands over
				got, at := p.findStart(from, dur, width)
				want := n.findStart(from, dur, width)
				if got != want {
					t.Fatalf("op %d: FindStart(%d,%d,%d) = %d, naive %d", i, from, dur, width, got, want)
				}
				if at != p.indexAt(got) {
					t.Fatalf("op %d: FindStart(%d,%d,%d) hands over index %d for start %d, which is in step %d",
						i, from, dur, width, at, got, p.indexAt(got))
				}
				handed, searched := p.Clone(), p.Clone()
				handed.adjust(at, got, dur, -width)
				searched.Reserve(got, dur, width)
				if err := handed.Check(); err != nil {
					t.Fatalf("op %d: reserving [%d,+%d) from index %d: %v", i, got, dur, at, err)
				}
				if !slices.Equal(handed.points, searched.points) {
					t.Fatalf("op %d: reserving [%d,+%d) from index %d gives %v, Reserve %v",
						i, got, dur, at, handed.points, searched.points)
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
			case 5: // EarlierStart against the release-and-refind oracle, then the move to it
				if len(live) > 0 {
					k := r.Intn(len(live))
					w := live[k]
					f0 := p.points[0].T
					got, at := p.earlierStart(f0, w.from, w.dur, w.width)
					want := n.earlierStart(f0, w.from, w.dur, w.width)
					if got != want {
						t.Fatalf("op %d: EarlierStart(%d,%d,%d,%d) = %d, oracle %d",
							i, f0, w.from, w.dur, w.width, got, want)
					}
					if got < w.from {
						if at != p.indexAt(got) {
							t.Fatalf("op %d: EarlierStart hands over index %d for start %d, which is in step %d", i, at, got, p.indexAt(got))
						}
						moveWindow(t, i, p, n, at, w.from, got, w.dur, w.width)
						live[k].from = got
					}
				}
			case 6: // the fit-now probe: a fit exactly when the naive start is from, else the next naive point
				want := n.findStart(from, dur, width)
				fits, next := p.fitsNow(from, dur, width)
				if fits != (want == from) {
					t.Fatalf("op %d: fitsNow(%d,%d,%d) = %v; naive start %d", i, from, dur, width, fits, want)
				}
				if !fits {
					// The first naive point after from, or after the
					// first point when from precedes it: the first step
					// extends into the past.
					step := max(from, n.points[0].T)
					k := slices.IndexFunc(n.points, func(pt point) bool { return pt.T > step })
					if k < 0 || next != n.points[k].T || next <= from || next > want {
						t.Fatalf("op %d: fitsNow(%d,%d,%d) = false, next %d; naive start %d, points %v",
							i, from, dur, width, next, want, n.points)
					}
				}
			case 7: // the one-pass running build against Reset and Reserves
				rs := decodeRunners(data[i], data[i+2], data[i+3], from)
				p.resetRunning(from, rs)
				n.points = []point{{T: 0, Free: procs}}
				live = live[:0]
				for _, r := range rs {
					if r.estEnd > from {
						n.adjust(from, r.estEnd-from, -r.j.Width)
						live = append(live, window{from, r.estEnd - from, r.j.Width})
					}
				}
				n.trim(from) // the build starts the profile at now, as Trim does
			case 8: // move a live window to where it would start from `from`, later or earlier
				if len(live) > 0 {
					k := r.Intn(len(live))
					w := live[k]
					c := n.clone()
					c.adjust(w.from, w.dur, w.width)
					to := c.findStart(max(from, p.points[0].T), w.dur, w.width)
					moveWindow(t, i, p, n, p.indexAt(to), w.from, to, w.dur, w.width)
					live[k].from = to
				}
			case 9: // displacement's two probes against edits on a copy
				if len(live) > 0 {
					w := live[r.Intn(len(live))]
					f0 := max(from, p.points[0].T)
					freed := []edit{{w.from, w.width}, {w.from + w.dur, -w.width}}
					c := n.clone()
					c.adjust(w.from, w.dur, w.width)
					cand := c.findStart(f0, dur, width)
					if got := p.startWith(f0, dur, width, freed...); got != cand {
						t.Fatalf("op %d: startWith(%d,%d,%d) with [%d,+%d)x%d released = %d, release and FindStart %d",
							i, f0, dur, width, w.from, w.dur, w.width, got, cand)
					}
					c.adjust(cand, dur, -width)
					want := c.findStart(f0, w.dur, w.width)
					if got := p.startWith(f0, w.dur, w.width, edit{cand + dur, width}, freed[1], edit{cand, -width}, freed[0]); got != want {
						t.Fatalf("op %d: startWith(%d,%d,%d) with [%d,+%d)x%d released and [%d,+%d)x%d reserved = %d, edits and FindStart %d",
							i, f0, w.dur, w.width, w.from, w.dur, w.width, cand, dur, width, got, want)
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
