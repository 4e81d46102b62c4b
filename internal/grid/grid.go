// Package grid simulates multi-site job scheduling with multiple
// simultaneous requests, after the authors' companion paper (Subramani,
// Kettimuthu, Srinivasan & Sadayappan, "Distributed job scheduling on
// computational grids using multiple simultaneous requests", HPDC 2002 —
// the paper's reference [12]): each job is submitted to K sites at once,
// the first site to actually start it wins, and the other copies are
// cancelled. Redundant requests let jobs exploit whichever site happens to
// have a hole, without any global load information.
//
// The package runs its own event loop over per-site schedulers from the
// sched package; any scheduler implementing sched.Canceler participates
// except a preemptive one. A one-site Single grid places every job where
// sim.Run places it.
package grid

import (
	"fmt"
	"sort"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Site is one machine in the grid.
type Site struct {
	// Name labels the site in placements.
	Name string
	// Procs is the machine size.
	Procs int
	// Make constructs the site's scheduler.
	Make sched.Maker
}

// Routing selects which sites receive each job.
type Routing int

const (
	// Single submits each job to one site chosen round-robin among the
	// sites wide enough for it — the no-information baseline.
	Single Routing = iota
	// ReplicateAll submits each job to every site wide enough for it; the
	// first start wins (the companion paper's multiple simultaneous
	// requests).
	ReplicateAll
	// LeastLoaded submits to the single site with the least outstanding
	// work (an omniscient-information baseline the paper compares
	// against).
	LeastLoaded
)

// String names the routing.
func (r Routing) String() string {
	switch r {
	case Single:
		return "single"
	case ReplicateAll:
		return "replicate-all"
	case LeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// Placement records where a job ran.
type Placement struct {
	Job   *job.Job
	Site  int
	Start int64
	End   int64
}

// siteState is the per-site simulation state.
type siteState struct {
	cfg       Site
	scheduler sim.Scheduler
	canceler  sched.Canceler
	waker     sim.Waker
	// pendingWork tracks outstanding runtime×width for LeastLoaded.
	pendingWork int64
}

// Run simulates jobs across the sites under the given routing and returns
// one placement per job. Jobs wider than every site are rejected. With
// ReplicateAll the per-site schedulers must implement sched.Canceler. A
// site's sim.Waker is honoured as sim.Run honours it; a sim.Preemptor is
// refused, because the loop never suspends a running job.
func Run(sites []Site, jobs []*job.Job, routing Routing) ([]Placement, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("grid: no sites")
	}
	states := make([]*siteState, len(sites))
	maxProcs := 0
	for i, s := range sites {
		if s.Procs < 1 {
			return nil, fmt.Errorf("grid: site %q has %d processors", s.Name, s.Procs)
		}
		if s.Make == nil {
			return nil, fmt.Errorf("grid: site %q has no scheduler", s.Name)
		}
		scheduler := s.Make(s.Procs)
		st := &siteState{cfg: s, scheduler: scheduler}
		st.canceler, _ = scheduler.(sched.Canceler)
		st.waker, _ = scheduler.(sim.Waker)
		if routing == ReplicateAll && st.canceler == nil {
			return nil, fmt.Errorf("grid: site %q scheduler %s cannot cancel queued jobs (required for replicate-all)", s.Name, scheduler.Name())
		}
		if _, ok := scheduler.(sim.Preemptor); ok {
			return nil, fmt.Errorf("grid: site %q scheduler %s preempts running jobs (the grid never suspends one)", s.Name, scheduler.Name())
		}
		states[i] = st
		if s.Procs > maxProcs {
			maxProcs = s.Procs
		}
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("grid: %w", err)
		}
		if j.Width > maxProcs {
			return nil, fmt.Errorf("grid: %v fits no site (max %d processors)", j, maxProcs)
		}
	}

	q := sim.NewEventQueue()
	for _, j := range jobs {
		q.Push(j.Arrival, sim.Arrival, j)
	}

	placedAt := make(map[int]int, len(jobs))    // job ID -> site (once started)
	submitted := make(map[int][]int, len(jobs)) // job ID -> sites holding a copy
	completionSite := make(map[int]int, len(jobs))
	placements := make([]Placement, 0, len(jobs))
	timers := make(map[int64]bool) // armed wake-up instants
	rr := 0                        // round-robin cursor for Single

	eligible := func(j *job.Job) []int {
		var out []int
		for i, st := range states {
			if j.Width <= st.cfg.Procs {
				out = append(out, i)
			}
		}
		return out
	}

	route := func(j *job.Job) []int {
		sites := eligible(j)
		switch routing {
		case ReplicateAll:
			return sites
		case LeastLoaded:
			best := sites[0]
			for _, i := range sites[1:] {
				if states[i].pendingWork < states[best].pendingWork {
					best = i
				}
			}
			return []int{best}
		default: // Single: round-robin over eligible sites
			pick := sites[rr%len(sites)]
			rr++
			return []int{pick}
		}
	}

	for q.Len() > 0 {
		head, _ := q.Peek()
		now := head.Time
		for {
			if h, ok := q.Peek(); !ok || h.Time != now {
				break
			}
			e, _ := q.Pop()
			switch e.Kind {
			case sim.Completion:
				site := completionSite[e.Job.ID]
				states[site].scheduler.Complete(now, e.Job)
				states[site].pendingWork -= int64(e.Job.Width) * e.Job.Runtime
			case sim.Arrival:
				targets := route(e.Job)
				submitted[e.Job.ID] = targets
				for _, i := range targets {
					states[i].scheduler.Arrive(now, e.Job)
					states[i].pendingWork += int64(e.Job.Width) * e.Job.Runtime
				}
			case sim.Timer:
				delete(timers, now) // wake-up: the launch below does the work
			}
		}

		// Launch sites repeatedly until a fixed point: a start at one site
		// cancels copies elsewhere, and a cancellation frees capacity (or
		// compresses reservations to "now") at a site whose Launch already
		// ran this instant, so a single pass can strand startable jobs
		// until the next event. Each iteration either starts a job or
		// stops, so the loop terminates.
		for {
			progressed := false
			for i, st := range states {
				for _, j := range st.scheduler.Launch(now) {
					progressed = true
					if winner, dup := placedAt[j.ID]; dup {
						return nil, fmt.Errorf("grid: %v started at sites %d and %d — cancellation failed", j, winner, i)
					}
					placedAt[j.ID] = i
					completionSite[j.ID] = i
					placements = append(placements, Placement{Job: j, Site: i, Start: now, End: now + j.Runtime})
					q.Push(now+j.Runtime, sim.Completion, j)
					// Withdraw the other copies.
					for _, other := range submitted[j.ID] {
						if other == i {
							continue
						}
						if states[other].canceler == nil || !states[other].canceler.Cancel(now, j) {
							return nil, fmt.Errorf("grid: could not cancel %v at site %d after it started at site %d", j, other, i)
						}
						states[other].pendingWork -= int64(j.Width) * j.Runtime
					}
					delete(submitted, j.ID)
				}
			}
			if !progressed {
				break
			}
		}
		// Arm each site's next wake-up, as sim.Session.launch does: a
		// scheduler whose next start falls at no arrival or completion
		// (a reservation it will not compress) would otherwise wait forever.
		for _, st := range states {
			if st.waker == nil {
				continue
			}
			if t := st.waker.NextWake(now); t > now && !timers[t] {
				timers[t] = true
				q.Push(t, sim.Timer, nil)
			}
		}
	}

	for i, st := range states {
		leftovers := 0
		for _, j := range st.scheduler.QueuedJobs() {
			if _, placed := placedAt[j.ID]; !placed {
				leftovers++
			}
		}
		if leftovers > 0 {
			return nil, fmt.Errorf("grid: site %d deadlocked with %d unplaced jobs", i, leftovers)
		}
	}
	if len(placements) != len(jobs) {
		return nil, fmt.Errorf("grid: %d placements for %d jobs", len(placements), len(jobs))
	}

	sort.Slice(placements, func(i, k int) bool {
		if placements[i].Start != placements[k].Start {
			return placements[i].Start < placements[k].Start
		}
		return placements[i].Job.ID < placements[k].Job.ID
	})
	return placements, nil
}

// ToSimPlacements converts grid placements to engine placements so the
// metrics package can analyze them.
func ToSimPlacements(ps []Placement) []sim.Placement {
	out := make([]sim.Placement, len(ps))
	for i, p := range ps {
		out[i] = sim.Placement{Job: p.Job, Start: p.Start, End: p.End}
	}
	return out
}

// SDSCJobs builds the stream of a grid study: n jobs from the SDSC model at
// the given offered load, none wider than one site of procs processors,
// arrivals compressed so that the sites together carry the load one site
// was calibrated for, and estimates from the named model.
func SDSCJobs(n int, seed int64, load float64, est string, sites, procs int) ([]*job.Job, error) {
	m, err := workload.NewSDSC(load)
	if err != nil {
		return nil, err
	}
	m.Procs = procs
	js, err := m.Generate(n, seed)
	if err != nil {
		return nil, err
	}
	return sweep.Prepare(js, 1/float64(sites), est, seed+1)
}

// Compare runs jobs once per routing on identical sites of procs
// processors, each scheduling with kind under policy, and returns one
// report per routing.
func Compare(jobs []*job.Job, sites, procs int, kind, policy string, routings []Routing) ([]metrics.Report, error) {
	pol, err := sched.PolicyByName(policy)
	if err != nil {
		return nil, err
	}
	mk, err := sched.MakerFor(kind, pol)
	if err != nil {
		return nil, err
	}
	ss := make([]Site, sites)
	for i := range ss {
		ss[i] = Site{Name: fmt.Sprintf("site%d", i), Procs: procs, Make: mk}
	}
	reps := make([]metrics.Report, len(routings))
	for i, r := range routings {
		ps, err := Run(ss, jobs, r)
		if err != nil {
			return nil, fmt.Errorf("grid: %s/%v: %w", kind, r, err)
		}
		reps[i] = metrics.Analyze(r.String(), ToSimPlacements(ps), job.PaperThresholds(), sites*procs)
	}
	return reps, nil
}
