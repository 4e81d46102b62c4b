package sched

// Check exposes the profile invariant checker to tests.
func (p *Profile) Check() error { return p.check() }

// Procs returns the machine size the profile was built with.
func (p *Profile) Procs() int { return p.procs }

// Clone returns an independent deep copy.
func (p *Profile) Clone() *Profile {
	return &Profile{procs: p.procs, points: append([]point(nil), p.points...)}
}

// NumPoints returns the current number of step points.
func (p *Profile) NumPoints() int { return len(p.points) }

// FreeAt returns the number of free processors at instant t. Instants
// before the first point report the first point's value (the profile does
// not record history).
func (p *Profile) FreeAt(t int64) int { return p.points[p.indexAt(t)].Free }

// MinFree returns the minimum number of free processors over the window
// [from, from+dur). A non-positive duration reports FreeAt(from).
func (p *Profile) MinFree(from, dur int64) int {
	i := p.indexAt(from)
	m := p.points[i].Free
	for _, pt := range p.points[i+1:] {
		if pt.T >= from+dur {
			break
		}
		m = min(m, pt.Free)
	}
	return m
}

// FitsAt reports whether width processors are free throughout
// [from, from+dur).
func (p *Profile) FitsAt(from, dur int64, width int) bool { return p.MinFree(from, dur) >= width }

// EarlierStart is earlierStart without the step index.
func (p *Profile) EarlierStart(from, limit, dur int64, width int) int64 {
	s, _ := p.earlierStart(from, limit, dur, width)
	return s
}

// forceFullPasses disables every skip and fast path of the scheduler that
// embeds q; FuzzLaunchIncremental builds its reference copies this way, so
// both sides of the differential share one implementation.
func (q *lifecycle) forceFullPasses() { q.memo.forceFull = true }

// queueInOrder reports whether the queue of the scheduler that embeds q is
// in policy order at now — the precondition that lets resort do nothing
// under a time-invariant policy, and under an aging one at the instant it
// last ran.
func (q *lifecycle) queueInOrder(now int64) bool { return queueSorted(q.queue, q.pol, now) }
