// Package sched implements the parallel job schedulers the paper studies:
// conservative backfilling, aggressive (EASY) backfilling, a
// no-backfilling baseline, and the selective-reservation scheme sketched in
// the paper's future work — each parameterised by a queue priority policy
// (FCFS, SJF, XFactor, and extensions).
//
// The shared substrate is Profile, a step function recording how many
// processors are free at every future instant. Schedulers plan with user
// estimates: a job's planned window is [start, start+Estimate), and when it
// finishes early the tail of the window is released, creating the "holes"
// whose exploitation distinguishes the policies.
package sched

import (
	"fmt"
	"math"
)

// point is one step of the profile: free processors from T (inclusive)
// until the next point's time (exclusive). The last point extends forever.
type point struct {
	T    int64
	Free int
}

// Profile tracks free processors over future time as a sorted step
// function. A fresh profile has all processors free from time 0. Reserve
// subtracts capacity over a window; Release returns it. FindStart answers
// the backfilling question: the earliest instant from which a given number
// of processors stays free for a given duration.
//
// Queries are plain scans of the step array; a FindStart is linear in the
// points between its origin and its answer (see FindStart).
//
// Profile methods panic on capacity violations (reserving more processors
// than are free): schedulers must FindStart before reserving, so a
// violation is always a scheduler bug, not an input error.
type Profile struct {
	procs  int
	points []point
	work   WorkCounts // its searches and edits, for the engine that owns it
}

// NewProfile returns a profile for a machine with procs processors, all
// free from time 0. It panics if procs < 1.
func NewProfile(procs int) *Profile {
	if procs < 1 {
		panic(fmt.Sprintf("sched: NewProfile with %d processors", procs))
	}
	return &Profile{procs: procs, points: []point{{T: 0, Free: procs}}}
}

// resetRunning rebuilds the profile as it stands from now, keeping the
// backing storage so that replan loops reuse one scratch profile: every
// processor free except that each runner planned past now holds its width
// until r.estEnd, built in one walk instead of one search-and-split per
// runner. Like Trim, it puts the first point at now, so the searches from
// now that follow find their step without a binary search. runners must be
// in shadow order (see insertRunner): its ends are then the profile's steps
// in order, and the free count at each is what the runners ending later
// still hold.
func (p *Profile) resetRunning(now int64, runners []runInfo) {
	for len(runners) > 0 && runners[0].estEnd <= now {
		runners = runners[1:]
	}
	held := 0
	for _, r := range runners {
		held += r.j.Width
	}
	if held > p.procs {
		panic(fmt.Sprintf("sched: runners hold %d processors of %d at t=%d", held, p.procs, now))
	}
	p.points = append(p.points[:0], point{T: now, Free: p.procs - held})
	for k, r := range runners {
		held -= r.j.Width
		if k+1 < len(runners) && runners[k+1].estEnd == r.estEnd {
			continue // one step for every runner ending at this instant
		}
		p.points = append(p.points, point{T: r.estEnd, Free: p.procs - held})
	}
}

// indexAt returns the index of the step containing t: the last point with
// T <= t, or 0 when t precedes all points. The boundary fast paths matter:
// schedulers trim the profile to "now" at every event, so queries at now
// hit the first point, and placements into the far future hit the last.
func (p *Profile) indexAt(t int64) int {
	if t <= p.points[0].T {
		return 0
	}
	return p.indexFrom(0, t)
}

// indexFrom is indexAt for an instant t known to lie in step lo or a later
// one: a binary search over the points after lo.
func (p *Profile) indexFrom(lo int, t int64) int {
	n := len(p.points)
	if t >= p.points[n-1].T {
		return n - 1
	}
	// Binary search for the first point with T > t.
	lo, hi := lo+1, n
	for lo < hi {
		mid := (lo + hi) / 2
		if p.points[mid].T <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// earlierStart computes where a job of the given width and duration,
// currently reserved at limit, would land if its reservation were
// released and re-found from `from` — without mutating the profile — and
// the index of the step holding that start, which move takes. It returns
// limit (and −1) when the job cannot move, so callers skip the edit
// entirely for immovable jobs.
//
// The result equals Release(limit,dur,width) + FindStart(from,dur,width)
// exactly, split by whether the candidate window overlaps the job's own
// slot [limit, limit+dur):
//
//   - a window ending at or before limit never touches the slot, so the
//     un-released profile answers for it directly (search up to
//     limit-dur);
//   - a window overlapping the slot needs width free only on [s, limit),
//     because the release credits the job's own width back over
//     [limit, limit+dur) — free counts are never negative, so the
//     released profile always has at least width free there. The
//     earliest such s is the start of the contiguous width-feasible run
//     ending at limit (runStartBefore).
//
// Any window-before-limit start precedes any overlapping start, so the
// first class that yields a start wins. A failed first search that stopped
// at or past limit settles the second class too: the points from its last
// violation, which lies before limit, up to the stop all lack width, so
// the step holding limit−1 does; one that stopped before limit tells the
// second class where that step's search may begin. So the first search's
// skip-ahead stops at limit too.
func (p *Profile) earlierStart(from, limit, dur int64, width int) (int64, int) {
	dur, width = p.query("EarlierStart", dur, width)
	if limit <= from {
		return limit, -1
	}
	s, i, ok := p.search(from, dur, width, limit-dur, limit)
	if ok {
		return s, i
	}
	if i >= 0 && p.points[i].T >= limit {
		return limit, -1
	}
	return p.runStartBefore(from, limit, width, max(i, 0))
}

// query panics when a probe asks for more processors than the machine has
// (such a job can never run), naming op, and takes dur and width to at
// least 1.
func (p *Profile) query(op string, dur int64, width int) (int64, int) {
	if width > p.procs {
		p.tooWide(op, width)
	}
	return max(dur, 1), max(width, 1)
}

//go:noinline
func (p *Profile) tooWide(op string, width int) {
	panic(fmt.Sprintf("sched: %s width %d exceeds machine size %d", op, width, p.procs))
}

// fitsNow reports whether width processors stay free throughout
// [now, now+dur), and when they do not, next: the instant of the step after
// the one holding now. The free count is constant on [now, next), so every
// window starting there covers the same shortage, and no start before next
// fits either: next is a lower bound on the earliest start, for a caller
// that only folds that start into a pass's wake-up bound. It is one window
// check from the step holding now.
func (p *Profile) fitsNow(now, dur int64, width int) (fits bool, next int64) {
	dur, width = p.query("fitsNow", dur, width)
	i := p.indexAt(now)
	v, below := p.firstBelow(i, now+dur, width)
	p.work.searched(v - i)
	if !below {
		return true, now
	}
	// The tail step has every processor free, so a shortage is never in it.
	return false, p.points[i+1].T
}

// runStartBefore returns the earliest instant s >= from such that width
// processors stay free throughout [s, limit) — the head of the
// contiguous feasible run ending at limit — and the index of its step, or
// limit and −1 when even the instant just before limit lacks width. The
// step holding limit−1 is lo or a later one.
func (p *Profile) runStartBefore(from, limit int64, width int, lo int) (int64, int) {
	j := p.indexFrom(lo, limit-1)
	if p.points[j].Free < width {
		p.work.searched(0)
		return limit, -1
	}
	top := j
	for j > 0 && p.points[j].T > from && p.points[j-1].Free >= width {
		j--
	}
	p.work.searched(top - j)
	s := p.points[j].T
	if s < from {
		s = from
	}
	if s >= limit {
		return limit, -1
	}
	return s, j
}

// FindStart returns the earliest instant s >= from such that width
// processors remain free throughout [s, s+dur). It panics if width exceeds
// the machine size (such a job can never run).
//
// The scan walks candidate start times: from itself, then the first point
// after each violation with enough free processors. Any start up to the
// violation would cover it, so the skip-ahead begins where the violation
// search stopped, and the walk is linear in the points between from and
// the answer even on a fragmented profile.
func (p *Profile) FindStart(from, dur int64, width int) int64 {
	s, _ := p.findStart(from, dur, width)
	return s
}

// findStart is FindStart that also returns the index of the step
// containing the start (indexAt of it), where the search ended, so a caller
// that reserves the window hands it to adjust instead of searching again.
func (p *Profile) findStart(from, dur int64, width int) (int64, int) {
	dur, width = p.query("FindStart", dur, width)
	s, i, ok := p.search(from, dur, width, math.MaxInt64, math.MaxInt64)
	if !ok {
		// The tail of the profile never frees enough — cannot happen when
		// reservations are finite and width <= procs, because the last
		// point always has all processors free.
		panic("sched: FindStart ran off the end of the profile")
	}
	return s, i
}

// search is the scan behind FindStart, restricted to starts at or before
// maxStart: it returns the earliest feasible start and the index of its
// step, or ok false when that start lies beyond maxStart. A failed scan
// returns in i the point it stopped at — the first after its last
// violation with width free or at or past bound, every point from that
// violation up to it lacking width — or −1 when it never ran or found no
// such point. A bound above maxStart only ends a doomed skip sooner.
func (p *Profile) search(from, dur int64, width int, maxStart, bound int64) (start int64, i int, ok bool) {
	if maxStart < from {
		return 0, -1, false
	}
	if from >= p.points[len(p.points)-1].T {
		// The tail step always has every processor free, so any window
		// starting in it fits immediately.
		p.work.searched(0)
		return from, len(p.points) - 1, true
	}
	start, i = from, p.indexAt(from)
	i0 := i
	for {
		v, below := p.firstBelow(i, start+dur, width)
		if !below {
			p.work.searched(v - i0)
			return start, i, true
		}
		// Violation at v: the next candidate start is the first point
		// after it with enough free processors.
		i = p.nextAtLeast(v+1, width, bound)
		if i == len(p.points) {
			p.work.searched(i - i0)
			return 0, -1, false
		}
		start = p.points[i].T
		if start > maxStart {
			p.work.searched(i - i0)
			return 0, i, false
		}
	}
}

// firstBelow returns the index of the first point k >= i with T < end and
// Free < width, and true; or, when every point in the window satisfies
// width, the index of the first point at or beyond end (len(points) if
// none) and false. Index i is the step containing the window's start, so
// its value counts even when its recorded T lies at or beyond end — which
// happens when the window starts before the first point (the profile does
// not record history; the first point's value extends into the past).
func (p *Profile) firstBelow(i int, end int64, width int) (int, bool) {
	if p.points[i].Free < width {
		return i, true
	}
	for k, pt := range p.points[i+1:] {
		if pt.T >= end {
			return i + 1 + k, false
		}
		if pt.Free < width {
			return i + 1 + k, true
		}
	}
	return len(p.points), false
}

// nextAtLeast returns the index of the first point k >= i with
// Free >= width or T >= bound, or len(points) if none exists. This is
// FindStart's skip-ahead over the points too full for the job.
func (p *Profile) nextAtLeast(i, width int, bound int64) int {
	for k, pt := range p.points[i:] {
		if pt.Free >= width || pt.T >= bound {
			return i + k
		}
	}
	return len(p.points)
}

// Reserve subtracts width processors over [from, from+dur). It panics if
// the window would drive free capacity negative (callers must check with
// FindStart first) or on non-positive duration/width.
func (p *Profile) Reserve(from, dur int64, width int) {
	p.adjust(-1, from, dur, -width)
}

// Release returns width processors over [from, from+dur). It panics if the
// window would exceed the machine size (releasing something never
// reserved) or on non-positive duration/width.
func (p *Profile) Release(from, dur int64, width int) {
	p.adjust(-1, from, dur, width)
}

// adjust adds delta to the free count over [from, from+dur). i is the index
// of the step containing from (indexAt(from)) when the caller has it from
// findStart, as a dry-run placement does, and −1 to search for it, as
// Reserve and Release do. Boundary points are split in place as needed,
// the delta is applied to the points inside the window, and at most the
// two boundary pairs the delta could have made equal are re-merged —
// interior neighbours all move by the same delta, so their inequality (a
// structural invariant) is preserved and no full coalescing pass is
// needed.
func (p *Profile) adjust(i int, from, dur int64, delta int) {
	if dur <= 0 {
		panic(fmt.Sprintf("sched: profile adjust with duration %d", dur))
	}
	if delta == 0 {
		panic("sched: profile adjust with zero width")
	}
	end := from + dur

	// Locate (or create) the point at exactly from; i is its index.
	// splitFrom records whether the point pre-existed: a freshly split
	// point starts delta away from its predecessor and can never merge.
	// frontExtended marks the one case that can leave an equal-adjacent
	// pair beyond the boundary checks below: extending into the past
	// copies the first point's value into a synthetic step, and after the
	// delta the original first point can match its new predecessor.
	if i < 0 {
		i = p.indexAt(from)
	}
	splitFrom := false
	frontExtended := false
	origFirstT := p.points[0].T
	if from < p.points[0].T {
		// Extend the profile into the past with the same free count; this
		// only happens if a caller reserves before the first point, which
		// Trim can make possible.
		p.insertPoint(0, point{T: from, Free: p.points[0].Free})
		splitFrom = true
		frontExtended = true
	} else if p.points[i].T != from {
		p.insertPoint(i+1, point{T: from, Free: p.points[i].Free})
		i++
		splitFrom = true
	}

	// Apply the delta through the window; j ends as the first index at or
	// beyond end. No point is inserted or removed inside this loop, so the
	// slice header can be hoisted out of it.
	pts := p.points
	j := i
	for ; j < len(pts) && pts[j].T < end; j++ {
		f := pts[j].Free + delta
		if f < 0 {
			panic(fmt.Sprintf("sched: reservation over-subscribes machine at t=%d (free %d, delta %d)", pts[j].T, pts[j].Free, delta))
		}
		if f > p.procs {
			panic(fmt.Sprintf("sched: release exceeds machine size at t=%d (free %d, delta %d, procs %d)", pts[j].T, pts[j].Free, delta, p.procs))
		}
		pts[j].Free = f
	}
	p.work.Adjusts++
	p.work.AdjustPoints += int64(j - i)
	// Ensure a point at exactly end so the delta stops there. Its value is
	// the pre-delta value of the step it splits, i.e. the last modified
	// point minus the delta. A freshly split end point differs from its
	// predecessor by exactly delta, so it never merges.
	if j == len(p.points) || p.points[j].T != end {
		p.insertPoint(j, point{T: end, Free: p.points[j-1].Free - delta})
	} else if p.points[j].Free == p.points[j-1].Free {
		p.removePoint(j)
	}
	if !splitFrom && i > 0 && p.points[i].Free == p.points[i-1].Free {
		p.removePoint(i)
	}
	if frontExtended {
		// The original first point sits at index 1, or 2 if the end split
		// landed before it (or it may already have merged away). Remove it
		// if the synthetic past step left it redundant.
		for m := 1; m <= 2 && m < len(p.points); m++ {
			if p.points[m].T == origFirstT {
				if p.points[m].Free == p.points[m-1].Free {
					p.removePoint(m)
				}
				break
			}
		}
	}
}

// move shifts a reserved window of the given duration and width from old
// to start, with i the index of the step holding start (indexAt(start)).
// It equals Release(old, dur, width) followed by
// Reserve(start, dur, width), but edits only the strips whose free count
// changes: when the two windows overlap, the part of the new one before
// the old and the part of the old one after the new; otherwise both whole
// windows. The later strip goes first, since edits from an instant leave
// the steps before it where they were.
func (p *Profile) move(i int, old, start, dur int64, width int) {
	if start == old {
		return
	}
	n := min(dur, max(start-old, old-start)) // the length of each strip
	first, last := min(start, old), max(start, old)+dur-n
	delta := width // over the earlier strip, freed when the window moves later
	if start < old {
		delta = -width
	}
	p.adjust(p.indexFrom(i, last), last, n, -delta)
	if start > old {
		i = -1 // the earlier strip begins at old, before start
	}
	p.adjust(i, first, n, delta)
}

// edit is one end of a window a probe supposes released or reserved: from
// T on, the free count changes by delta.
type edit struct {
	T     int64
	delta int
}

// startWith is FindStart(from, dur, width) on the profile as it would be
// with the edits applied, answered without applying them. The scan is
// FindStart's, on the steps split at the edits' instants with each one's
// delta added from its instant on: it seeks the first instant with width
// free, then walks the window from there until it fits or a step lacking
// width sends it seeking again. It is EarlierStart's reasoning applied to
// other jobs' windows, and leaves the profile untouched. The edits are
// sorted in place.
func (p *Profile) startWith(from, dur int64, width int, edits ...edit) int64 {
	dur, width = p.query("FindStart", dur, width)
	for a := 1; a < len(edits); a++ { // an insertion sort: there are at most four
		for b := a; b > 0 && edits[b].T < edits[b-1].T; b-- {
			edits[b], edits[b-1] = edits[b-1], edits[b]
		}
	}
	pts := p.points
	k := p.indexAt(from)
	k0, off, e := k, 0, 0
	t, next := from, from // next is the instant of edits[e], the first edit after t
	// cross moves t to next, into the step holding it, and applies the
	// edits up to it.
	cross := func() {
		t = next
		if k+1 < len(pts) && pts[k+1].T == t {
			k++
		}
		for ; e < len(edits) && edits[e].T <= t; e++ {
			off += edits[e].delta
		}
		next = math.MaxInt64
		if e < len(edits) {
			next = edits[e].T
		}
	}
	cross()
	for {
		// Seek the first instant from t with width free.
		for pts[k].Free+off < width {
			if k+1 < len(pts) && pts[k+1].T < next {
				k++
				t = pts[k].T
				continue
			}
			if next == math.MaxInt64 {
				panic("sched: FindStart ran off the end of the profile")
			}
			cross()
		}
		// Walk [run, run+dur) until a step lacks width or the window fits.
		run := t
		for {
			lim := min(next, run+dur)
			for k+1 < len(pts) && pts[k+1].T < lim && pts[k+1].Free+off >= width {
				k++
			}
			if k+1 < len(pts) && pts[k+1].T < lim {
				k++
				t = pts[k].T
				break
			}
			if next >= run+dur {
				p.work.searched(k - k0)
				return run
			}
			cross()
			if pts[k].Free+off < width {
				break
			}
		}
	}
}

// insertPoint inserts pt at index k, shifting the tail up. The slice's
// spare capacity is reused; nothing is allocated once the backing array
// has grown to the profile's working size.
func (p *Profile) insertPoint(k int, pt point) {
	p.points = append(p.points, point{})
	copy(p.points[k+1:], p.points[k:])
	p.points[k] = pt
}

// removePoint deletes points[k] in place. Index 0 is never removed, so the
// profile always keeps at least one point.
func (p *Profile) removePoint(k int) {
	copy(p.points[k:], p.points[k+1:])
	p.points = p.points[:len(p.points)-1]
}

// Trim discards step points strictly before now, keeping the value at now
// as the new first point, at now, so that the searches from now that follow
// find their step without a binary search. Schedulers call it at each event
// to keep the profile from growing with simulated time. The survivors are
// copied down in place so the backing array's head capacity is reused
// rather than abandoned behind a re-slice.
func (p *Profile) Trim(now int64) {
	if i := p.indexAt(now); i > 0 {
		n := copy(p.points, p.points[i:])
		p.points = p.points[:n]
	}
	if p.points[0].T < now {
		p.points[0].T = now
	}
}

// check verifies internal invariants (sortedness, bounds and coalescing);
// it is exported to tests via export_test.go.
func (p *Profile) check() error {
	if len(p.points) == 0 {
		return fmt.Errorf("sched: profile has no points")
	}
	for i, pt := range p.points {
		if pt.Free < 0 || pt.Free > p.procs {
			return fmt.Errorf("sched: point %d free=%d out of [0,%d]", i, pt.Free, p.procs)
		}
		if i > 0 {
			if pt.T <= p.points[i-1].T {
				return fmt.Errorf("sched: points not strictly increasing at %d", i)
			}
			if pt.Free == p.points[i-1].Free {
				return fmt.Errorf("sched: uncoalesced equal points at %d", i)
			}
		}
	}
	if p.points[len(p.points)-1].Free != p.procs {
		return fmt.Errorf("sched: profile tail has %d free, want all %d (reservations must be finite)", p.points[len(p.points)-1].Free, p.procs)
	}
	return nil
}
