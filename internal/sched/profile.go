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

import "fmt"

// point is one step of the profile: free processors from T (inclusive)
// until the next point's time (exclusive). The last point extends forever.
type point struct {
	T    int64
	Free int
}

// Index geometry: the free-capacity index summarises blocks of 2^blockBits
// consecutive points with their min and max free counts. 32 points per
// block keeps the summary arrays tiny (a cache line each for typical
// profiles) while letting queries skip whole blocks of infeasible or
// feasible points at a time.
const (
	blockBits = 5
	blockSize = 1 << blockBits

	// indexMinPoints is the profile size below which queries stay with
	// plain linear scans: rebuilding block summaries after every mutation
	// costs more than it saves until the step function is a few blocks
	// long. Once a query has paid for a rebuild the summaries stay valid
	// until the next mutation, and smaller profiles keep using them.
	indexMinPoints = 4 * blockSize
)

// Profile tracks free processors over future time as a sorted step
// function. A fresh profile has all processors free from time 0. Reserve
// subtracts capacity over a window; Release returns it. FindStart answers
// the backfilling question: the earliest instant from which a given number
// of processors stays free for a given duration.
//
// Queries are accelerated by a free-capacity index: per-block min/max
// summaries of the step points, rebuilt lazily after mutations. Short scans
// never touch the index; long scans consult it to leap over runs of points
// that are uniformly feasible (MinFree) or uniformly infeasible (the
// skip-ahead in FindStart), so a FindStart over a badly fragmented profile
// costs O(n/B + B) per candidate window instead of O(n).
//
// Profile methods panic on capacity violations (reserving more processors
// than are free): schedulers must FindStart (or check FitsAt) before
// reserving, so a violation is always a scheduler bug, not an input error.
type Profile struct {
	procs  int
	points []point

	// blkMin/blkMax hold the free-capacity index: min and max of
	// points[k].Free over each block of blockSize points. idxOK marks the
	// summaries as current; every mutation clears it and lowers idxValid,
	// the count of leading blocks no mutation has reached since, and the
	// next long query rebuilds the blocks from there on.
	blkMin   []int
	blkMax   []int
	idxOK    bool
	idxValid int
}

// NewProfile returns a profile for a machine with procs processors, all
// free from time 0. It panics if procs < 1.
func NewProfile(procs int) *Profile {
	if procs < 1 {
		panic(fmt.Sprintf("sched: NewProfile with %d processors", procs))
	}
	return &Profile{procs: procs, points: []point{{T: 0, Free: procs}}}
}

// Procs returns the machine size the profile was built with.
func (p *Profile) Procs() int { return p.procs }

// Clone returns an independent deep copy.
func (p *Profile) Clone() *Profile {
	return &Profile{procs: p.procs, points: append([]point(nil), p.points...)}
}

// Reset restores the all-free state while keeping the backing storage, so
// replan loops can reuse one scratch profile instead of allocating a fresh
// one per pass.
func (p *Profile) Reset() {
	p.points = p.points[:1]
	p.points[0] = point{T: 0, Free: p.procs}
	p.idxOK, p.idxValid = false, 0
}

// NumPoints returns the current number of step points (for tests and
// benchmarks).
func (p *Profile) NumPoints() int { return len(p.points) }

// FreeAt returns the number of free processors at instant t. Instants
// before the first point report the first point's value (the profile does
// not record history).
func (p *Profile) FreeAt(t int64) int {
	i := p.indexAt(t)
	return p.points[i].Free
}

// indexAt returns the index of the step containing t: the last point with
// T <= t, or 0 when t precedes all points. The boundary fast paths matter:
// schedulers trim the profile to "now" at every event, so queries at now
// hit the first point, and placements into the far future hit the last.
func (p *Profile) indexAt(t int64) int {
	if t <= p.points[0].T {
		return 0
	}
	if n := len(p.points); t >= p.points[n-1].T {
		return n - 1
	}
	lo, hi := 0, len(p.points)
	// Binary search for the first point with T > t.
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

// ensureIndex rebuilds the block summaries a mutation invalidated: those
// from the first block any mutation since the last rebuild changed (a
// point at index i moving or changing leaves every block before i's as it
// was), which for placements near the profile's tail — a forecast dry-run's
// — is the last few. The rebuild is lazy, so mutation-heavy phases
// (compression churn) never pay for an index they do not consult.
func (p *Profile) ensureIndex() {
	if p.idxOK {
		return
	}
	nb := (len(p.points) + blockSize - 1) >> blockBits
	if cap(p.blkMin) < nb {
		// Room for every block the points' backing array can hold.
		c := cap(p.points)>>blockBits + 1
		p.blkMin = append(make([]int, 0, c), p.blkMin[:p.idxValid]...)
		p.blkMax = append(make([]int, 0, c), p.blkMax[:p.idxValid]...)
	}
	p.blkMin, p.blkMax = p.blkMin[:nb], p.blkMax[:nb]
	for b := p.idxValid; b < nb; b++ {
		p.blkMin[b], p.blkMax[b] = p.blockRange(b)
	}
	p.idxOK, p.idxValid = true, nb
}

// blockRange scans block b for its min and max free counts.
func (p *Profile) blockRange(b int) (mn, mx int) {
	lo := b << blockBits
	hi := lo + blockSize
	if hi > len(p.points) {
		hi = len(p.points)
	}
	mn, mx = p.points[lo].Free, p.points[lo].Free
	for _, pt := range p.points[lo+1 : hi] {
		if pt.Free < mn {
			mn = pt.Free
		}
		if pt.Free > mx {
			mx = pt.Free
		}
	}
	return mn, mx
}

// MinFree returns the minimum number of free processors over the window
// [from, from+dur). A non-positive duration reports FreeAt(from).
func (p *Profile) MinFree(from, dur int64) int {
	if dur <= 0 {
		return p.FreeAt(from)
	}
	end := from + dur
	pts := p.points
	i := p.indexAt(from)
	m := pts[i].Free
	// Scan directly to the end of i's block; short windows finish here
	// without ever touching the index.
	k := i + 1
	stop := (i>>blockBits + 1) << blockBits
	if stop > len(pts) {
		stop = len(pts)
	}
	for ; k < stop; k++ {
		if pts[k].T >= end {
			return m
		}
		if pts[k].Free < m {
			m = pts[k].Free
		}
	}
	if k >= len(pts) || pts[k].T >= end {
		return m
	}
	if !p.idxOK && len(pts) < indexMinPoints {
		for ; k < len(pts) && pts[k].T < end; k++ {
			if pts[k].Free < m {
				m = pts[k].Free
			}
		}
		return m
	}
	// Long window: fold in whole blocks via the index, scanning only the
	// final partial block.
	p.ensureIndex()
	for b := k >> blockBits; b < len(p.blkMin); b++ {
		lo := b << blockBits
		hi := lo + blockSize
		if hi > len(pts) {
			hi = len(pts)
		}
		if pts[hi-1].T < end {
			if p.blkMin[b] < m {
				m = p.blkMin[b]
			}
			continue
		}
		for k = lo; k < hi && pts[k].T < end; k++ {
			if pts[k].Free < m {
				m = pts[k].Free
			}
		}
		break
	}
	return m
}

// FitsAt reports whether width processors are free throughout
// [from, from+dur).
func (p *Profile) FitsAt(from, dur int64, width int) bool {
	return p.MinFree(from, dur) >= width
}

// anyAtLeastBefore reports whether some instant in [from, end) has at
// least width processors free. Compression loops use it as a cheap
// necessary condition: a reservation starting at end can only move
// earlier if width processors are free at some earlier instant, and the
// answer is exact even before the job's own window is released because
// that window lies entirely at or after end.
func (p *Profile) anyAtLeastBefore(from, end int64, width int) bool {
	if from >= end {
		return false
	}
	k := p.nextAtLeast(p.indexAt(from), width)
	return k < len(p.points) && p.points[k].T < end
}

// EarlierStart computes where a job of the given width and duration,
// currently reserved at limit, would land if its reservation were
// released and re-found from `from` — without mutating the profile. It
// returns limit when the job cannot move, so callers skip the
// release/re-reserve round trip entirely for immovable jobs.
//
// The result equals Release(limit,dur,width) + FindStart(from,dur,width)
// exactly, split by whether the candidate window overlaps the job's own
// slot [limit, limit+dur):
//
//   - a window ending at or before limit never touches the slot, so the
//     un-released profile answers for it directly (findStartBefore);
//   - a window overlapping the slot needs width free only on [s, limit),
//     because the release credits the job's own width back over
//     [limit, limit+dur) — free counts are never negative, so the
//     released profile always has at least width free there. The
//     earliest such s is the start of the contiguous width-feasible run
//     ending at limit (runStartBefore).
//
// Any window-before-limit start precedes any overlapping start, so the
// first class that yields a start wins.
func (p *Profile) EarlierStart(from, limit, dur int64, width int) int64 {
	if width > p.procs {
		panic(fmt.Sprintf("sched: EarlierStart width %d exceeds machine size %d", width, p.procs))
	}
	if width < 1 {
		width = 1
	}
	if dur < 1 {
		dur = 1
	}
	if limit <= from {
		return limit
	}
	if s, ok := p.findStartBefore(from, dur, width, limit-dur); ok {
		return s
	}
	if s, ok := p.runStartBefore(from, limit, width); ok {
		return s
	}
	return limit
}

// findStartBefore is FindStart restricted to starts at or before
// maxStart; ok is false when the earliest feasible start lies beyond it.
func (p *Profile) findStartBefore(from, dur int64, width int, maxStart int64) (int64, bool) {
	if maxStart < from {
		return 0, false
	}
	if from >= p.points[len(p.points)-1].T {
		return from, true
	}
	start := from
	i := p.indexAt(from)
	for {
		v := p.firstBelow(i, start+dur, width)
		if v < 0 {
			return start, true
		}
		n := p.nextAtLeast(v+1, width)
		if n == len(p.points) {
			return 0, false
		}
		start = p.points[n].T
		if start > maxStart {
			return 0, false
		}
		i = n
	}
}

// runStartBefore returns the earliest instant s >= from such that width
// processors stay free throughout [s, limit) — the head of the
// contiguous feasible run ending at limit; ok is false when even the
// instant just before limit lacks width.
func (p *Profile) runStartBefore(from, limit int64, width int) (int64, bool) {
	j := p.indexAt(limit - 1)
	if p.points[j].Free < width {
		return 0, false
	}
	for j > 0 && p.points[j].T > from && p.points[j-1].Free >= width {
		j--
	}
	s := p.points[j].T
	if s < from {
		s = from
	}
	if s >= limit {
		return 0, false
	}
	return s, true
}

// FindStart returns the earliest instant s >= from such that width
// processors remain free throughout [s, s+dur). It panics if width exceeds
// the machine size (such a job can never run).
//
// The scan walks candidate start times: from itself, then the first point
// after each violation with enough free processors. Both the violation
// search and the skip-ahead consult the free-capacity index, so runs of
// feasible points inside a window and runs of infeasible points between
// candidate windows are crossed a block at a time rather than point by
// point — this is what keeps FindStart from going quadratic on badly
// fragmented profiles.
func (p *Profile) FindStart(from, dur int64, width int) int64 {
	if width > p.procs {
		panic(fmt.Sprintf("sched: FindStart width %d exceeds machine size %d", width, p.procs))
	}
	if width < 1 {
		width = 1
	}
	if dur < 1 {
		dur = 1
	}
	if from >= p.points[len(p.points)-1].T {
		// The tail step always has every processor free, so any window
		// starting in it fits immediately.
		return from
	}
	start := from
	i := p.indexAt(from)
	for {
		v := p.firstBelow(i, start+dur, width)
		if v < 0 {
			return start
		}
		// Violation at v: the next candidate start is the first point
		// after it with enough free processors.
		n := p.nextAtLeast(v+1, width)
		if n == len(p.points) {
			// The tail of the profile never frees enough — cannot happen
			// when reservations are finite and width <= procs, because the
			// last point always has all processors free.
			panic("sched: FindStart ran off the end of the profile")
		}
		start = p.points[n].T
		i = n
	}
}

// firstBelow returns the index of the first point k >= i with T < end and
// Free < width, or -1 if every point in the window satisfies width. Index
// i is the step containing the window's start, so its value counts even
// when its recorded T lies at or beyond end — which happens when the
// window starts before the first point (the profile does not record
// history; the first point's value extends into the past, matching
// FreeAt).
func (p *Profile) firstBelow(i int, end int64, width int) int {
	pts := p.points
	if pts[i].Free < width {
		return i
	}
	// Direct scan to the end of i's block.
	k := i + 1
	stop := (i>>blockBits + 1) << blockBits
	if stop > len(pts) {
		stop = len(pts)
	}
	for ; k < stop; k++ {
		if pts[k].T >= end {
			return -1
		}
		if pts[k].Free < width {
			return k
		}
	}
	if k >= len(pts) {
		return -1
	}
	if !p.idxOK && len(pts) < indexMinPoints {
		for ; k < len(pts); k++ {
			if pts[k].T >= end {
				return -1
			}
			if pts[k].Free < width {
				return k
			}
		}
		return -1
	}
	// Block-at-a-time: skip whole blocks whose minimum already satisfies
	// width, scan only blocks that contain a potential violation.
	p.ensureIndex()
	for b := k >> blockBits; b < len(p.blkMin); b++ {
		lo := b << blockBits
		hi := lo + blockSize
		if hi > len(pts) {
			hi = len(pts)
		}
		if pts[lo].T >= end {
			return -1
		}
		if p.blkMin[b] >= width {
			continue
		}
		for k = lo; k < hi; k++ {
			if pts[k].T >= end {
				return -1
			}
			if pts[k].Free < width {
				return k
			}
		}
	}
	return -1
}

// nextAtLeast returns the index of the first point k >= i with
// Free >= width, or len(points) if none exists. This is FindStart's
// skip-ahead: the block maxima let it jump clean over saturated regions.
func (p *Profile) nextAtLeast(i, width int) int {
	pts := p.points
	k := i
	stop := (i>>blockBits + 1) << blockBits
	if stop > len(pts) {
		stop = len(pts)
	}
	for ; k < stop; k++ {
		if pts[k].Free >= width {
			return k
		}
	}
	if k >= len(pts) {
		return len(pts)
	}
	if !p.idxOK && len(pts) < indexMinPoints {
		for ; k < len(pts); k++ {
			if pts[k].Free >= width {
				return k
			}
		}
		return len(pts)
	}
	p.ensureIndex()
	for b := k >> blockBits; b < len(p.blkMax); b++ {
		if p.blkMax[b] < width {
			continue
		}
		lo := b << blockBits
		hi := lo + blockSize
		if hi > len(pts) {
			hi = len(pts)
		}
		for k = lo; k < hi; k++ {
			if pts[k].Free >= width {
				return k
			}
		}
	}
	return len(pts)
}

// Reserve subtracts width processors over [from, from+dur). It panics if
// the window would drive free capacity negative (callers must check with
// FindStart or FitsAt first) or on non-positive duration/width.
func (p *Profile) Reserve(from, dur int64, width int) {
	p.adjust(from, dur, -width)
}

// Release returns width processors over [from, from+dur). It panics if the
// window would exceed the machine size (releasing something never
// reserved) or on non-positive duration/width.
func (p *Profile) Release(from, dur int64, width int) {
	p.adjust(from, dur, width)
}

// adjust adds delta to the free count over [from, from+dur). One binary
// search locates the window; boundary points are split in place as needed,
// the delta is applied to the points inside the window, and at most the
// two boundary pairs the delta could have made equal are re-merged —
// interior neighbours all move by the same delta, so their inequality (a
// structural invariant) is preserved and no full coalescing pass is
// needed.
func (p *Profile) adjust(from, dur int64, delta int) {
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
	var i int
	splitFrom := false
	frontExtended := false
	origFirstT := p.points[0].T
	if from <= p.points[0].T {
		if from < p.points[0].T {
			// Extend the profile into the past with the same free count;
			// this only happens if a caller reserves before the first
			// point, which Trim can make possible.
			p.insertPoint(0, point{T: from, Free: p.points[0].Free})
			splitFrom = true
			frontExtended = true
		}
		i = 0
	} else {
		i = p.indexAt(from)
		if p.points[i].T != from {
			p.insertPoint(i+1, point{T: from, Free: p.points[i].Free})
			i++
			splitFrom = true
		}
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
	// Every point before index i is where and what it was.
	p.idxOK = false
	if b := i >> blockBits; b < p.idxValid {
		p.idxValid = b
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
// as the new first point. Schedulers call it at each event to keep the
// profile from growing with simulated time. The survivors are copied down
// in place so the backing array's head capacity is reused rather than
// abandoned behind a re-slice.
func (p *Profile) Trim(now int64) {
	i := p.indexAt(now)
	if i == 0 {
		return
	}
	n := copy(p.points, p.points[i:])
	p.points = p.points[:n]
	if p.points[0].T < now {
		p.points[0].T = now
	}
	p.idxOK, p.idxValid = false, 0
}

// check verifies internal invariants (sortedness, bounds, coalescing, and
// index consistency); it is exported to tests via export_test.go.
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
	// A current index summarises every block; a stale one must still be
	// right about the leading blocks it claims no mutation reached, since
	// the next rebuild keeps them.
	nb := (len(p.points) + blockSize - 1) >> blockBits
	if p.idxOK && (len(p.blkMin) != nb || len(p.blkMax) != nb || p.idxValid != nb) {
		return fmt.Errorf("sched: index has %d/%d blocks, %d valid, want %d", len(p.blkMin), len(p.blkMax), p.idxValid, nb)
	}
	if p.idxValid > nb || p.idxValid > len(p.blkMin) || p.idxValid > len(p.blkMax) {
		return fmt.Errorf("sched: %d index blocks marked valid of %d (%d/%d kept)", p.idxValid, nb, len(p.blkMin), len(p.blkMax))
	}
	for b := 0; b < p.idxValid; b++ {
		if mn, mx := p.blockRange(b); p.blkMin[b] != mn || p.blkMax[b] != mx {
			return fmt.Errorf("sched: stale index block %d: min %d/%d max %d/%d", b, p.blkMin[b], mn, p.blkMax[b], mx)
		}
	}
	return nil
}
