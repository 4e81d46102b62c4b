package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/stats"
)

// The estimator rules (README "Estimators"). A run sets up a fixed number
// of times and then measures a fixed number of rounds, each a fixed op count on a
// fresh instance. A round is cut into slices of a fixed op sequence, so
// slice s of every round is the same work; the run reports the quiet round,
// made of every slice's fastest replicate. The build machine disturbs a run
// in bursts shorter than a second that only ever slow it down, so the
// fastest of several 0.1 s replicates repeats from run to run where the
// median of 3 s rounds does not.
const (
	minRounds = 3
	// setupBudget buys the set-ups the way --seconds buys the rounds: a
	// short set-up is repeated more often, so that its slices too find a
	// moment in which the machine leaves them alone.
	setupBudget = 8 * time.Second
	// refNominal is the reference kernel's time on the build machine when
	// nothing disturbs it. Times are reported as measured time × refNominal
	// ÷ the kernel's time in the same run, so they read as build-machine
	// time whatever the machine did during the run.
	refNominal = 5500 * time.Microsecond
)

// roundsFor is how many rounds --seconds buys: the whole number of the
// workload's nominal rounds that fit. The fastest of R replicates falls as
// R grows, so R has to be the same on both sides of a comparison; a time
// budget spent round by round would make R follow the machine's speed.
func roundsFor(budget, nominalRound time.Duration) int {
	return max(minRounds, int(budget/nominalRound))
}

// workload is one of the benchmark's four traffic shapes.
type workload interface {
	// prepare derives every input from the seed. The program under test
	// sees only what prepare generated.
	prepare(seed int64) error
	// round runs one round on a fresh instance of the system under test,
	// bracketing the measured ops with rc.start and rc.stop and ending each
	// slice with rc.mark. With rc.warm set it is the warm-up round: it
	// checks every output it can check on the spot and keeps what verify
	// needs.
	round(rc *roundCtx) error
	// verify runs the full output verification on the warm-up round and
	// returns how many of its ops failed it.
	verify(warm *roundCtx) (failed int, err error)
	// probe measures the per-layer metrics by timing calls into the
	// layers' public functions; it runs after the traced round.
	probe(pc *probeCtx) error
	// tailQ is the workload's tail percentile.
	tailQ() float64
	// nominalRound is what a round takes on the build machine; roundsFor
	// turns it into the run's round count.
	nominalRound() time.Duration
	// cleanup removes what prepare left on disk.
	cleanup()
}

// roundCtx carries one round's measurements between workload and harness.
type roundCtx struct {
	warm bool
	tr   *tracer
	span int32 // the round's span, parent of its ops

	// hist takes one sample per latency-bearing op of the current slice.
	hist *latHist
	// quiet is where the round's slices compete with their replicates in
	// the run's other rounds; the traced round has none.
	quiet     *quietRound
	slices    int // marks so far
	sinceMark int // samples since the last mark
	ops       int
	failed    int
	// keep holds the instance's state so that it is still referenced when
	// the harness measures the live heap; release tears the instance down.
	keep    any
	release func()

	// Sums over the round's slices; what happens between a mark and the
	// start of the next slice (the reference kernel) is in none of them.
	wall, cpu     time.Duration
	mallocs, heap uint64        // allocations and bytes allocated
	refTime       time.Duration // spent in the reference kernel
	tMark         time.Time
	cpuMark       time.Duration
	msMark, ms    runtime.MemStats
}

// quietSlice is the fastest replicate seen of one slice: its wall and CPU
// time and its latency samples. ref is the fastest of the reference kernel's
// runs that followed the slice's replicates.
type quietSlice struct {
	wall, cpu, ref time.Duration
	hist           *latHist
}

// quietRound is the quiet round in the making: every slice's fastest
// replicate over the rounds that were handed it.
type quietRound []quietSlice

func (q *quietRound) at(i int) *quietSlice {
	for len(*q) <= i {
		*q = append(*q, quietSlice{hist: &latHist{}})
	}
	return &(*q)[i]
}

// totals returns the quiet round end to end, its pooled latency samples,
// and the run's speed factor: how much longer than nominal the reference
// kernel took, estimated the way the quiet round is.
func (q quietRound) totals() (wall, cpu time.Duration, pooled *latHist, speed float64) {
	pooled = &latHist{}
	var ref time.Duration
	for i := range q {
		wall += q[i].wall
		cpu += q[i].cpu
		ref += q[i].ref
		pooled.merge(q[i].hist)
	}
	return wall, cpu, pooled, float64(ref) / float64(len(q)) / float64(refNominal)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// start opens the measured section: everything before it (building the
// instance, seeding its queue) is untimed.
func (rc *roundCtx) start() {
	runtime.GC()
	rc.open()
}

// open starts a slice.
func (rc *roundCtx) open() {
	runtime.ReadMemStats(&rc.msMark)
	rc.cpuMark = cpuTime()
	rc.tMark = time.Now()
}

func (rc *roundCtx) sample(d time.Duration) {
	rc.hist.add(d)
	rc.sinceMark++
}

// mark ends a slice; a workload calls it after the same ops in every round.
// When this replicate is the fastest the run has seen of the slice, its
// times and its latency samples replace the ones kept.
func (rc *roundCtx) mark() {
	wall, cpu := time.Since(rc.tMark), cpuTime()-rc.cpuMark
	runtime.ReadMemStats(&rc.ms)
	rc.wall += wall
	rc.cpu += cpu
	rc.mallocs += rc.ms.Mallocs - rc.msMark.Mallocs
	rc.heap += rc.ms.TotalAlloc - rc.msMark.TotalAlloc
	if rc.quiet != nil {
		q := rc.quiet.at(rc.slices)
		if q.wall == 0 || wall < q.wall {
			q.wall, q.cpu = wall, cpu
			q.hist, rc.hist = rc.hist, q.hist
		}
		// The reference kernel runs between the slices and is kept the way
		// a slice is: its fastest replicate at this place in the round.
		ref := refKernel()
		if q.ref == 0 || ref < q.ref {
			q.ref = ref
		}
		rc.refTime += ref
	}
	*rc.hist = latHist{}
	rc.slices++
	rc.sinceMark = 0
	rc.open()
}

// stop closes the measured section after ops operations. Samples taken
// since the last mark make a last, shorter slice.
func (rc *roundCtx) stop(ops int) {
	if rc.sinceMark > 0 {
		rc.mark()
	}
	rc.ops = ops
}

// probeCtx is what a workload's probes see: the tracer to hang their spans
// under, the traced round, and the map their metrics go into.
type probeCtx struct {
	tr     *tracer
	traced *roundCtx
	out    map[string]float64
}

var ladderQs = [5]float64{0.5, 0.9, 0.95, 0.99, 0.999}

// result is one run of one workload.
type result struct {
	workload          string
	seed              int64
	attempted, failed int
	samples, slices   int // latency samples and slices of the quiet round
	tailQ             float64
	setups            []time.Duration
	walls             []time.Duration
	quietWall         time.Duration
	quietSetup        time.Duration
	speed, setupSpeed float64          // reference kernel's time ÷ refNominal during the rounds and around the set-ups
	ladder            [5]time.Duration // p50, p90, p95, p99, p99.9 of the quiet round
	e2e               map[string]float64
	layer             map[string]float64 // nil unless traced
	spans             int
}

// liveHeap returns the heap in use after a full collection. Two cycles:
// the first can leave sync.Pool victims and finalizer garbage behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runRound runs one round and measures what its instance retains.
func runRound(w workload, tr *tracer, quiet *quietRound, hist *latHist) (*roundCtx, uint64, error) {
	rc := &roundCtx{tr: tr, quiet: quiet, hist: hist}
	before := liveHeap()
	rc.span = tr.begin(0, "round", "driver")
	err := w.round(rc)
	tr.finish(rc.span)
	var live uint64
	if err == nil {
		if after := liveHeap(); after > before {
			live = after - before
		}
	}
	return rc, live, err
}

// done tears the round's instance down and drops its state.
func (rc *roundCtx) done() {
	if rc.release != nil {
		rc.release()
	}
	rc.keep, rc.release = nil, nil
}

// measure runs one workload: set-ups, the timed rounds that budget buys,
// and with traced set one more round under the tracer followed by the
// probes.
func measure(name string, w workload, seed int64, budget time.Duration, traced bool, spanPath string) (*result, error) {
	defer w.cleanup()
	res := &result{workload: name, seed: seed, tailQ: w.tailQ()}
	// A set-up is measured the way a round is: the warm-up rounds' slices
	// compete with one another, and what a set-up does outside them
	// (generating the inputs, building the instance) is one more slice.
	var setupQuiet quietRound
	var setupRest time.Duration
	for i := 0; i < roundsFor(setupBudget, w.nominalRound()); i++ {
		w.cleanup()
		t0 := time.Now()
		if err := w.prepare(seed); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", name, err)
		}
		warm := &roundCtx{warm: true, quiet: &setupQuiet, hist: &latHist{}}
		err := w.round(warm)
		total := time.Since(t0) - warm.refTime
		res.setups = append(res.setups, total)
		if rest := total - warm.wall; i == 0 || rest < setupRest {
			setupRest = rest
		}
		if err == nil && i == 0 {
			// Verification is the benchmark's own work, not the system's
			// set-up: it runs once and outside the set-up time.
			var failed int
			failed, err = w.verify(warm)
			res.attempted, res.failed = warm.ops, warm.failed+failed
		}
		res.slices = warm.slices
		warm.done()
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
	}
	setupWall, _, _, setupSpeed := setupQuiet.totals()
	res.quietSetup, res.setupSpeed = setupRest+setupWall, setupSpeed
	rounds := roundsFor(budget, w.nominalRound())
	if traced {
		// The time goes to the traced round and the probes; the untraced
		// rounds only have to give trace.overhead_ratio its base.
		rounds = minRounds
	}

	// The driver's own heap stays small and constant from the first round
	// to the last (see latHist): the quiet slices, the scratch histogram
	// they trade places with and the tracer are allocated before the rounds.
	var tr *tracer
	if traced {
		tr = newTracer(8192)
	}
	var quiet quietRound
	quiet.at(res.slices - 1)
	scratch := &latHist{}
	var walls, lives []float64
	var ops int
	var mallocs, bytes uint64
	for r := 0; r < rounds; r++ {
		rc, live, err := runRound(w, nil, &quiet, scratch)
		scratch = rc.hist
		rc.done()
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", name, r+1, err)
		}
		if rc.slices != res.slices {
			return nil, fmt.Errorf("%s: round %d cut %d slices, the warm-up round %d", name, r+1, rc.slices, res.slices)
		}
		res.attempted += rc.ops
		res.failed += rc.failed
		res.walls = append(res.walls, rc.wall)
		walls = append(walls, rc.wall.Seconds())
		lives = append(lives, float64(live))
		ops = rc.ops
		mallocs += rc.mallocs
		bytes += rc.heap
	}

	// The quiet round: every slice's fastest replicate, end to end.
	quietWall, quietCPU, pooled, speed := quiet.totals()
	res.quietWall, res.speed = quietWall, speed
	res.samples = pooled.n
	// Every sample of the quiet round stands for the replicates of its
	// slice, so the tail rank is judged on all the samples measured. A
	// traced run's few rounds are the base of trace.overhead_ratio only; its
	// result line carries no end-to-end metric.
	if beyond := samplesBeyond(pooled.n*rounds, res.tailQ); beyond < 10 && !traced {
		return nil, fmt.Errorf("%s: %d rounds of %d samples leave %d beyond p%g; the tail needs 10", name, rounds, pooled.n, beyond, res.tailQ*100)
	}
	for i, q := range ladderQs {
		res.ladder[i] = pooled.quantile(q)
	}
	n := float64(rounds)
	res.e2e = map[string]float64{
		"setup_s":          res.quietSetup.Seconds() / res.setupSpeed,
		"throughput_per_s": float64(ops) / res.quietWall.Seconds() * res.speed,
		"latency_p50_us":   micros(pooled.quantile(0.5)) / res.speed,
		"latency_tail_us":  micros(pooled.quantile(res.tailQ)) / res.speed,
		"cpu_us_per_op":    micros(quietCPU) / float64(ops) / res.speed,
		"allocs_per_op":    float64(mallocs) / (n * float64(ops)),
		"alloc_kb_per_op":  float64(bytes) / 1000 / (n * float64(ops)),
		"live_heap_mb":     median(lives) / 1e6,
	}
	if !traced {
		return res, nil
	}

	rc, _, err := runRound(w, tr, nil, scratch)
	defer rc.done()
	if err != nil {
		return nil, fmt.Errorf("%s: traced round: %w", name, err)
	}
	res.attempted += rc.ops
	res.failed += rc.failed
	pc := &probeCtx{tr: tr, traced: rc, out: map[string]float64{}}
	pc.out["trace.overhead_ratio"] = rc.wall.Seconds() / median(walls)
	if err := w.probe(pc); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", name, err)
	}
	res.layer = pc.out
	res.spans = len(tr.spans)
	if spanPath != "" {
		if err := tr.write(spanPath); err != nil {
			return nil, fmt.Errorf("%s: span file: %w", name, err)
		}
	}
	return res, nil
}

// samplesBeyond is how many of n samples lie above the nearest-rank
// q-quantile.
func samplesBeyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// median is the middle value, or the mean of the two middle ones.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// p50of returns the median of ds in µs; the probes' handful of samples
// need no histogram.
func p50of(ds []time.Duration) float64 {
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = micros(d)
	}
	return median(us)
}
