// End-to-end checks of the schedulers through the event engine: every
// registered kind under the invariant auditor, and every kind against the
// brute-force references of reference_test.go. This lives in
// the external test package because internal/audit, which the fuzzer runs
// every kind under, imports sched.
package sched_test

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// referencePolicies are the paper's three priority policies, the ones the
// references implement.
var referencePolicies = []string{"FCFS", "SJF", "XF"}

// referenceRow holds one scheduler to a reference, start by start and, for
// a preemptive row, suspension by suspension.
type referenceRow struct {
	// kind is the engine's sched.MakerFor spelling, unless engine is set.
	kind   string
	engine func(procs int, pol sched.Policy) sim.Scheduler
	ref    refFunc
	// An identity row holds its engine to the reference of another kind,
	// like: under refPol, when set, whatever the engine's policy, and on
	// the workload with every estimate set to the runtime when exact is set.
	like   string
	refPol string
	exact  bool
	// displaces marks a slack row that can move a window: under an aging
	// policy it tries the windows in a stale order (CHANGES.md's FOUND on
	// resvEngine.displacement).
	displaces bool
}

// name labels the row in failures and in knownDivergences.
func (r referenceRow) name() string {
	n := r.kind
	if r.exact {
		n += " (exact)"
	}
	if r.like != "" {
		n += " ≡ " + r.like
		if r.refPol != "" {
			n += "/" + r.refPol
		}
	}
	return n
}

// maker builds the row's engine under pol.
func (r referenceRow) maker(pol sched.Policy) (sched.Maker, error) {
	if r.engine != nil {
		return func(procs int) sim.Scheduler { return r.engine(procs, pol) }, nil
	}
	return sched.MakerFor(r.kind, pol)
}

// preemptiveRow is preemptive:<x> built with a run quantum of minRun, not
// DefaultMinRun, which no small workload reaches.
func preemptiveRow(x float64, minRun int64) referenceRow {
	return referenceRow{
		kind: fmt.Sprintf("preemptive:%g", x),
		engine: func(procs int, pol sched.Policy) sim.Scheduler {
			return sched.NewPreemptive(procs, pol, x, minRun)
		},
		ref: refEASY(easyRule{order: "first", threshold: x, minRun: minRun}),
	}
}

// kindRows are every kind of sched.Kinds() but preemptive:<x>, and
// selective:2 (which benchmark/golden.json pins), each with its reference.
func kindRows() []referenceRow {
	return []referenceRow{
		{kind: "none", ref: refEASY(easyRule{order: "none"})},
		{kind: "easy", ref: refEASY(easyRule{order: "first"})},
		{kind: "easy:bestfit", ref: refEASY(easyRule{order: "widest"})},
		{kind: "easy:shortestfit", ref: refEASY(easyRule{order: "shortest"})},
		{kind: "depth:2", ref: refDepth(2)},
		{kind: "conservative", ref: refResv(resvRule{})},
		{kind: "conservative-nc", ref: refResv(resvRule{noCompress: true})},
		{kind: "selective:adaptive", ref: refResv(resvRule{adaptive: true})},
		{kind: "selective:2", ref: refResv(resvRule{threshold: 2})},
		{kind: "slack:1", ref: refResv(resvRule{slack: 1}), displaces: true},
	}
}

// exhaustiveRows are kindRows and preemptive:10 at a quantum of 1.
func exhaustiveRows() []referenceRow { return append(kindRows(), preemptiveRow(10, 1)) }

// randomRows are the exhaustive rows with more parameters, preemption at a
// quantum of 10, and the identity rows: depth 1 and a threshold no job
// reaches are EASY, slack 0 is conservative, and with exact estimates no
// window ever moves, so conservative without compression or under any
// policy is conservative under FCFS (the paper's §4.1).
func randomRows() []referenceRow {
	easy, con := refEASY(easyRule{order: "first"}), refResv(resvRule{})
	return append(kindRows(),
		referenceRow{kind: "depth:4", ref: refDepth(4)},
		referenceRow{kind: "selective:5", ref: refResv(resvRule{threshold: 5})},
		referenceRow{kind: "slack:0.5", ref: refResv(resvRule{slack: 0.5}), displaces: true},
		referenceRow{kind: "slack:3", ref: refResv(resvRule{slack: 3}), displaces: true},
		preemptiveRow(10, 10),
		preemptiveRow(2, 10),
		preemptiveRow(1.5, 1),
		referenceRow{kind: "depth:1", ref: easy, like: "easy"},
		referenceRow{kind: "preemptive:1e18", ref: easy, like: "easy"},
		referenceRow{kind: "slack:0", ref: con, like: "conservative"},
		referenceRow{kind: "conservative", ref: con, like: "conservative", refPol: "FCFS", exact: true},
		referenceRow{kind: "conservative-nc", ref: con, like: "conservative", refPol: "FCFS", exact: true},
	)
}

// refPolicy is the policy the row's reference runs under when the engine
// runs under pol.
func (r referenceRow) refPolicy(pol string) string {
	if r.refPol != "" {
		return r.refPol
	}
	return pol
}

// rowCell is one row under one policy, its engine built once; acts is the
// buffer its observer logs the engine's starts and suspensions in.
type rowCell struct {
	row  referenceRow
	pol  string
	mk   sched.Maker
	obs  sim.Observer
	acts []refAct
}

// cells pairs every row with pol.
func cells(rows []referenceRow, pol string) ([]*rowCell, error) {
	p, err := sched.PolicyByName(pol)
	if err != nil {
		return nil, err
	}
	out := make([]*rowCell, len(rows))
	for i, r := range rows {
		mk, err := r.maker(p)
		if err != nil {
			return nil, err
		}
		c := &rowCell{row: r, pol: pol, mk: mk}
		c.obs.OnStart = func(now int64, j *job.Job) { c.acts = append(c.acts, refAct{At: now, ID: j.ID}) }
		c.obs.OnSuspend = func(now int64, j *job.Job) {
			c.acts = append(c.acts, refAct{At: now, ID: j.ID, Suspend: true})
		}
		out[i] = c
	}
	return out, nil
}

// mismatch runs jobs (exact, an exact copy, for an exact row) through the
// cell's engine and reference and reports the first act on which they
// differ, or nil when every act agrees.
func (c *rowCell) mismatch(procs int, jobs, exact []*job.Job) error {
	if c.row.exact {
		jobs = exact
	}
	c.acts = c.acts[:0]
	if _, err := sim.Run(sim.Machine{Procs: procs}, jobs, c.mk(procs), &c.obs); err != nil {
		return fmt.Errorf("%s/%s: %v", c.row.name(), c.pol, err)
	}
	got := refCanon(c.acts)
	want := refCanon(c.row.ref(procs, c.row.refPolicy(c.pol), jobs))
	if slices.Equal(got, want) {
		return nil
	}
	at := func(acts []refAct, i int) string {
		if i < len(acts) {
			return acts[i].String()
		}
		return "none"
	}
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s/%s: act %d is %s, the reference says %s", c.row.name(), c.pol, i, at(got, i), at(want, i))
}

// exactCopy returns jobs with every estimate set to the runtime.
func exactCopy(jobs []*job.Job) []*job.Job {
	out := make([]*job.Job, len(jobs))
	for i, j := range jobs {
		e := *j
		e.Estimate = e.Runtime
		out[i] = &e
	}
	return out
}

// TestReferenceExhaustive holds every exhaustive row to its reference on
// every 3-job workload on 4 processors: width 1–4, runtime 1–2, estimate
// from the runtime to 3, and non-decreasing arrivals in 0–2 — 80 000
// workloads under each policy.
func TestReferenceExhaustive(t *testing.T) {
	const procs, n = 4, 3
	// The run allocates ~2.7 GB of engine state (sim.Run reuses its
	// session), all of it dead within a workload; collecting at 4× the live
	// heap, not 2×, takes about a sixth off its wall time on 2 cores.
	old := debug.SetGCPercent(400)
	t.Cleanup(func() { debug.SetGCPercent(old) })
	rows := exhaustiveRows()
	for _, kind := range sched.Kinds() {
		if !slices.ContainsFunc(rows, func(r referenceRow) bool { return r.kind == kind }) {
			t.Errorf("sched.Kinds() lists %q, which no row holds to a reference", kind)
		}
	}
	// shapes are the 20 (width, runtime, estimate) choices for one job.
	var shapes [][3]int64
	for w := int64(1); w <= procs; w++ {
		for rt := int64(1); rt <= 2; rt++ {
			for est := rt; est <= 3; est++ {
				shapes = append(shapes, [3]int64{w, rt, est})
			}
		}
	}
	var arrivals [][n]int64
	for a := int64(0); a <= 2; a++ {
		for b := a; b <= 2; b++ {
			for c := b; c <= 2; c++ {
				arrivals = append(arrivals, [n]int64{a, b, c})
			}
		}
	}
	for _, pol := range referencePolicies {
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			// Two workers, each on every other arrival pattern, keep two
			// cores busy to the end of the three policies.
			const workers = 2
			count := make([]int, workers)
			bad := make([][]int, workers)
			var wg sync.WaitGroup
			for w := range workers {
				cs, err := cells(rows, pol)
				if err != nil {
					t.Fatal(err)
				}
				bad[w] = make([]int, len(cs))
				wg.Add(1)
				go func() {
					defer wg.Done()
					var js [n]job.Job
					jobs := []*job.Job{&js[0], &js[1], &js[2]}
					for p := w; p < len(arrivals); p += workers {
						for _, a := range shapes {
							for _, b := range shapes {
								for _, c := range shapes {
									for i, sh := range [n][3]int64{a, b, c} {
										js[i] = job.Job{ID: i + 1, Arrival: arrivals[p][i], Width: int(sh[0]), Runtime: sh[1], Estimate: sh[2]}
									}
									count[w]++
									for i, cell := range cs {
										if err := cell.mismatch(procs, jobs, nil); err != nil {
											if bad[w][i]++; bad[w][i] <= 3 {
												t.Errorf("%v\nworkload: %v", err, jobs)
											}
										}
									}
								}
							}
						}
					}
				}()
			}
			wg.Wait()
			for w := 1; w < workers; w++ {
				count[0] += count[w]
				for i := range rows {
					bad[0][i] += bad[w][i]
				}
			}
			if count[0] != 80000 {
				t.Errorf("%d workloads, want 80000", count[0])
			}
			for i, row := range rows {
				if bad[0][i] > 0 {
					t.Errorf("%s: %d of 80000 workloads disagree", row.name(), bad[0][i])
				}
			}
		})
	}
}

// knownDivergences are the random trials on which an engine disagrees with
// its reference for a known fault, by row name and policy. Slack under XF
// tries the windows it may displace in the queue's order at the last full
// pass or compression, arrivals appended, not in policy order at the
// arrival (CHANGES.md's FOUND on resvEngine.displacement); the fix
// empties the list.
var knownDivergences = map[string][]int{
	"slack:0.5/XF": {212},
	"slack:1/XF":   {176, 212},
	"slack:3/XF":   {59, 228, 242, 305, 332, 479},
}

// TestReferenceRandom holds every random row to its reference on 500
// random workloads under each policy: 8 processors, 3–30 jobs, arrival gaps
// 0–29, runtimes 1–60, and estimates exact or up to 4× the runtime. A trial
// in knownDivergences must disagree, and every other must agree.
func TestReferenceRandom(t *testing.T) {
	const procs = 8
	r := stats.NewRNG(1001)
	var trials, exact [500][]*job.Job
	for trial := range trials {
		n := r.Intn(28) + 3
		jobs := make([]*job.Job, 0, n)
		clock := int64(0)
		for i := 1; i <= n; i++ {
			clock += int64(r.Intn(30))
			rt := int64(r.Intn(60) + 1)
			est := rt
			if r.Intn(2) == 0 {
				est += int64(r.Intn(int(3*rt) + 1))
			}
			jobs = append(jobs, &job.Job{ID: i, Arrival: clock, Runtime: rt, Estimate: est, Width: r.Intn(procs) + 1})
		}
		trials[trial], exact[trial] = jobs, exactCopy(jobs)
	}
	for _, pol := range referencePolicies {
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			cs, err := cells(randomRows(), pol)
			if err != nil {
				t.Fatal(err)
			}
			for trial, jobs := range trials {
				for _, c := range cs {
					err := c.mismatch(procs, jobs, exact[trial])
					key := c.row.name() + "/" + pol
					switch known := slices.Contains(knownDivergences[key], trial); {
					case err != nil && !known:
						t.Errorf("trial %d: %v\nworkload: %v", trial, err, jobs)
					case err == nil && known:
						t.Errorf("trial %d: %s agrees with its reference; take it off knownDivergences", trial, key)
					}
				}
			}
		})
	}
}

// decodeWorkload turns fuzz bytes into a machine size and a small job set:
// byte 0 picks the processor count, then each 4-byte group is one job
// (arrival delta, runtime, estimate overrun, width). A zero overrun byte
// yields an exact estimate.
func decodeWorkload(data []byte) (int, []*job.Job) {
	if len(data) == 0 {
		return 0, nil
	}
	procs := int(data[0]%13) + 4 // 4..16
	data = data[1:]
	const maxJobs = 24
	var jobs []*job.Job
	clock := int64(0)
	for i := 0; i+3 < len(data) && len(jobs) < maxJobs; i += 4 {
		clock += int64(data[i] % 50)
		rt := int64(data[i+1]%120) + 1
		jobs = append(jobs, &job.Job{
			ID:       len(jobs) + 1,
			Arrival:  clock,
			Runtime:  rt,
			Estimate: rt + int64(data[i+2]%60),
			Width:    int(data[i+3])%procs + 1,
		})
	}
	return procs, jobs
}

// FuzzSchedulerRun runs each decoded workload through every registered
// scheduler kind under the audit wrapper, under FCFS, SJF and XF: any
// invariant violation, engine error, or panic fails the input. Then every
// random row must agree with its reference under each policy — except a
// displacing slack row under XF, whose known fault (knownDivergences)
// TestReferenceRandom pins instead.
func FuzzSchedulerRun(f *testing.F) {
	// The canonical backfill scenario (exact estimates, 10 processors).
	f.Add([]byte("\x06\x00\x63\x00\x05\x01\x63\x00\x05\x01\x31\x00\x03"))
	// Overestimated runtimes: compression and kill-at-estimate paths fire.
	f.Add([]byte("\x0c\x00\x20\x10\x07\x05\x40\x3b\x03\x02\x08\x2c\x01\x09\x50\x1e\x06"))
	// Degenerate: smallest machine, one unit job.
	f.Add([]byte("\x00\x00\x00\x00\x00"))
	all := map[string][]*rowCell{}
	for _, pol := range referencePolicies {
		cs, err := cells(randomRows(), pol)
		if err != nil {
			f.Fatal(err)
		}
		all[pol] = cs
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		procs, jobs := decodeWorkload(data)
		if len(jobs) == 0 {
			t.Skip()
		}
		exact := exactCopy(jobs)
		for _, pol := range referencePolicies {
			p, err := sched.PolicyByName(pol)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range sched.Kinds() {
				mk, err := sched.MakerFor(kind, p)
				if err != nil {
					t.Fatal(err)
				}
				_, rep, err := audit.Run(procs, jobs, mk(procs), audit.OptionsForKind(kind, p))
				if err != nil {
					t.Fatalf("%s/%s: engine: %v\nworkload (procs=%d): %v", kind, pol, err, procs, jobs)
				}
				if err := rep.Err(); err != nil {
					t.Fatalf("%s/%s: %v\nworkload (procs=%d): %v", kind, pol, err, procs, jobs)
				}
			}
			for _, c := range all[pol] {
				if c.row.displaces && pol == "XF" {
					continue
				}
				if err := c.mismatch(procs, jobs, exact); err != nil {
					t.Fatalf("%v\nworkload (procs=%d): %v", err, procs, jobs)
				}
			}
		}
	})
}
