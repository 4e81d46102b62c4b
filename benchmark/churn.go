package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/audit"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wal"
)

// churnBurst is how many submissions, then how many cancellations, follow
// each other. A submission extends the forecast chain and a cancellation
// breaks it, so a cycle costs one full forecast dry-run and 31 extensions:
// both write paths run at a fixed ratio and the dry-run stays a small share.
const churnBurst = 32

// churnSlice is the writes in a slice: eight cycles of 32 submissions and
// 32 cancellations, about 80 ms.
const churnSlice = 8 * 2 * churnBurst

// churn is the leader write path: one closed-loop writer against a live
// journaling daemon with a full machine and a standing queue.
type churn struct {
	writes, depth int
	workdir       string

	pin   serve.SubmitRequest
	fill  []serve.SubmitRequest
	subs  []serve.SubmitRequest // the round's submissions, in order
	body  [][]byte              // their request bodies
	picks []int                 // one per cancellation
}

// tailQ is p95, not p99: the writer and the daemon's loop hand every write
// back and forth between two threads, and when the host deschedules one of
// them the write waits out a time slice. With two CPU hogs beside the run
// p50 stayed put, p95 rose 17 % and p99 fourfold; p95 (480 µs against a p50
// of 90) already lies among the writes that pay a collection or a forecast.
func (c *churn) tailQ() float64              { return 0.95 }
func (c *churn) nominalRound() time.Duration { return 1300 * time.Millisecond }
func (c *churn) cleanup()                    {}

func (c *churn) prepare(seed int64) error {
	r := stats.NewRNG(seed)
	c.pin = serve.SubmitRequest{Width: daemonProcs, Runtime: 1_000_000, User: 1}
	c.fill, c.subs, c.body, c.picks = nil, nil, nil, nil
	for i := 0; i < c.depth; i++ {
		c.fill = append(c.fill, randomJob(r))
	}
	for i := 0; i < c.writes; i++ {
		if i/churnBurst%2 == 0 {
			c.subs = append(c.subs, randomJob(r))
			c.body = append(c.body, mustJSON(c.subs[len(c.subs)-1]))
		} else {
			c.picks = append(c.picks, r.Intn(1<<30))
		}
	}
	return nil
}

// play runs the round's write sequence: bursts of submissions and of
// cancellations of mid-queue jobs. submit returns the new job's ID (0 on
// failure) and cancel whether the job was withdrawn; play keeps the
// driver's copy of the queue and returns the ops that failed.
func (c *churn) play(live []int, submit func(k int) int, cancel func(id int) bool) (failed int, acked [2][]int) {
	s, p := 0, 0
	for i := 0; i < c.writes; i++ {
		if i/churnBurst%2 == 0 {
			id := submit(s)
			s++
			if id == 0 {
				failed++
				continue
			}
			live = append(live, id)
			acked[0] = append(acked[0], id)
		} else {
			at := midQueue(live, c.picks[p])
			p++
			id := live[at]
			if !cancel(id) {
				failed++
				continue
			}
			live = removeAt(live, at)
			acked[1] = append(acked[1], id)
		}
	}
	return failed, acked
}

// churnKeep is what a round leaves behind for verification and probes.
type churnKeep struct {
	d       *daemon
	acked   [2][]int // submitted and cancelled IDs the daemon acknowledged
	dryRuns int64
	*churnTrace
}

// churnTrace is what a traced round adds for the probes.
type churnTrace struct {
	submit, cancel opClass
	stalled        latHist // writes that waited for a checkpoint
	lastCkpt       uint64
}

func (c *churn) round(rc *roundCtx) error {
	d, err := startDaemon(c.workdir, true)
	if err != nil {
		return err
	}
	rc.release = d.remove
	live, err := d.seedQueue([]serve.SubmitRequest{c.pin}, c.fill)
	if err != nil {
		return err
	}
	keep := &churnKeep{d: d}
	rc.keep = keep
	const ckptOps = 4096 // serve's default Durability.CheckpointOps
	var ckptSeq uint64
	var submits, cancels *opClass // nil in an untraced round, where note ignores them
	if rc.tr != nil {
		keep.churnTrace = &churnTrace{}
		submits, cancels = &keep.submit, &keep.cancel
		ckptSeq = d.srv.Durability().CheckpointSeq
	}
	stall := false
	// note records one finished write; in a traced round it also files it
	// under its class and works out whether the next write will wait for a
	// checkpoint. With a single closed-loop writer the daemon checkpoints
	// right after acknowledging the write that took its journal tail to
	// CheckpointOps, and the next write sits in the mailbox meanwhile.
	done := 0
	note := func(class *opClass, t0 time.Time, call time.Duration) {
		op := time.Since(t0)
		rc.sample(op)
		if done++; done%churnSlice == 0 {
			rc.mark()
		}
		if rc.tr == nil {
			return
		}
		class.add(t0, op, call)
		if stall {
			keep.stalled.add(call)
		}
		seq := d.srv.DurableSeq()
		if stall = seq-ckptSeq >= ckptOps; stall {
			ckptSeq = seq
		}
	}
	dry0 := d.srv.DryRuns()
	rc.start()
	rc.failed, keep.acked = c.play(live,
		func(k int) int {
			t0 := time.Now()
			id, call := d.submit(c.body[k])
			note(submits, t0, call)
			return id
		},
		func(id int) bool {
			t0 := time.Now()
			ok, call := d.cancelJob(id)
			note(cancels, t0, call)
			return ok
		})
	rc.stop(c.writes)
	keep.dryRuns = d.srv.DryRuns() - dry0
	if rc.tr != nil {
		keep.lastCkpt = ckptSeq
		keep.submit.fold(rc.tr, rc.span, "POST /v1/jobs")
		keep.cancel.fold(rc.tr, rc.span, "DELETE /v1/jobs/{id}")
	}
	return nil
}

// verify drains the warm-up daemon and checks that its state is what an
// independent replay of its own journal produces, and that every write it
// acknowledged is in that journal.
func (c *churn) verify(warm *roundCtx) (int, error) {
	keep := warm.keep.(*churnKeep)
	if err := keep.d.stop(); err != nil {
		return 0, fmt.Errorf("drain: %w", err)
	}
	st, err := wal.Load(keep.d.dir)
	if err != nil {
		return 0, err
	}
	shadow, err := serve.New(daemonOptions(""))
	if err != nil {
		return 0, err
	}
	if err := shadow.Replay(st.Ops()); err != nil {
		return 0, fmt.Errorf("shadow replay: %w", err)
	}
	if got, want := shadow.StateHash(), keep.d.srv.StateHash(); got != want {
		return warm.ops, nil // nothing the daemon acknowledged can be trusted
	}
	journaled := [2]map[int]bool{{}, {}}
	for _, r := range st.Ops() {
		switch r.Op {
		case wal.OpSubmit:
			journaled[0][r.Job.ID] = true
		case wal.OpCancel:
			journaled[1][r.ID] = true
		}
	}
	failed := 0
	for kind, ids := range keep.acked {
		for _, id := range ids {
			if !journaled[kind][id] {
				failed++
			}
		}
	}
	return failed, nil
}

func (c *churn) probe(pc *probeCtx) error {
	keep := pc.traced.keep.(*churnKeep)
	kops := float64(c.writes) / 1000
	pc.out["serve.http_submit_us"] = keep.submit.hist.p50us()
	pc.out["serve.http_cancel_us"] = keep.cancel.hist.p50us()
	pc.out["serve.dry_runs_per_kop"] = float64(keep.dryRuns) / kops
	pc.out["wal.checkpoints_per_kop"] = float64(keep.stalled.n) / kops
	pc.out["serve.checkpoint_stall_us"] = keep.stalled.p50us()
	if got := keep.d.srv.Durability().CheckpointSeq; got != keep.lastCkpt {
		return fmt.Errorf("checkpoint tracking drifted: daemon at seq %d, driver expected %d", got, keep.lastCkpt)
	}

	if err := c.probeForecast(pc, keep.d.srv.Current()); err != nil {
		return err
	}
	if err := c.probeWAL(pc, keep.d.dir); err != nil {
		return err
	}
	if err := c.probeDirect(pc); err != nil {
		return err
	}
	return c.probeSession(pc)
}

// probeForecast times the full forecast dry-run over the standing queue:
// what a write pays when the chain cannot be extended.
func (c *churn) probeForecast(pc *probeCtx, snap *serve.Snapshot) error {
	pol, err := sched.PolicyByName("FCFS")
	if err != nil {
		return err
	}
	sp := pc.tr.begin(pc.traced.span, "probe: sched.ForecastFromState", "sched")
	defer pc.tr.finish(sp)
	var ds []time.Duration
	for i := 0; i < 51; i++ {
		t0 := time.Now()
		if got := sched.ForecastFromState(snap.Procs, snap.SimNow, snap.FRunning, snap.FQueued, pol, snap.Resv); len(got) != len(snap.FQueued) {
			return fmt.Errorf("forecast covers %d of %d queued jobs", len(got), len(snap.FQueued))
		}
		ds = append(ds, time.Since(t0))
	}
	pc.out["sched.forecast_full_us"] = p50of(ds)
	return nil
}

// probeWAL replays the traced round's own journal through the wal layer
// alone: framing, and framing plus the write into a scratch log.
func (c *churn) probeWAL(pc *probeCtx, dir string) error {
	st, err := wal.Load(dir)
	if err != nil {
		return err
	}
	recs := st.Ops()
	n := float64(len(recs))

	sp := pc.tr.begin(pc.traced.span, "probe: wal.EncodeRecord", "wal")
	var buf []byte
	bytes := 0
	t0 := time.Now()
	for _, r := range recs {
		if buf, err = wal.EncodeRecord(buf[:0], r); err != nil {
			return err
		}
		bytes += len(buf)
	}
	pc.out["wal.encode_us_per_rec"] = micros(time.Since(t0)) / n
	pc.tr.finish(sp)
	pc.out["wal.bytes_per_rec"] = float64(bytes) / n

	scratch, err := os.MkdirTemp(c.workdir, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	log, _, err := wal.Open(scratch, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	sp = pc.tr.begin(pc.traced.span, "probe: wal.Append", "wal")
	defer pc.tr.finish(sp)
	t0 = time.Now()
	for i := range recs {
		if err := log.Append(recs[i : i+1]); err != nil {
			return err
		}
	}
	pc.out["wal.append_us_per_rec"] = micros(time.Since(t0)) / n
	return nil
}

// probeDirect drives a twin daemon through Server.Submit and Server.Cancel:
// the write path without the HTTP mux and the JSON on either side.
func (c *churn) probeDirect(pc *probeCtx) error {
	d, err := startDaemon(c.workdir, true)
	if err != nil {
		return err
	}
	defer d.remove()
	live, err := d.seedQueue([]serve.SubmitRequest{c.pin}, c.fill)
	if err != nil {
		return err
	}
	sp := pc.tr.begin(pc.traced.span, "probe: serve.Submit/Cancel", "serve")
	defer pc.tr.finish(sp)
	ds := make([]time.Duration, 0, len(c.subs))
	failed, _ := c.play(live,
		func(k int) int {
			t0 := time.Now()
			v, err := d.srv.Submit(c.subs[k])
			ds = append(ds, time.Since(t0))
			if err != nil {
				return 0
			}
			return v.ID
		},
		func(id int) bool { return d.srv.Cancel(id) == nil })
	if failed > 0 {
		return fmt.Errorf("direct twin: %d writes failed", failed)
	}
	pc.out["serve.direct_submit_us"] = p50of(ds)
	pc.out["serve.http_overhead_us"] = pc.out["serve.http_submit_us"] - pc.out["serve.direct_submit_us"]
	return nil
}

// probeSession feeds the same writes to a bare audited sim.Session: the
// engine's share of a write, with no serving layer around it.
func (c *churn) probeSession(pc *probeCtx) error {
	pol, err := sched.PolicyByName("FCFS")
	if err != nil {
		return err
	}
	mk, err := sched.MakerFor("easy", pol)
	if err != nil {
		return err
	}
	s := mk(daemonProcs)
	sess, err := sim.Open(sim.Machine{Procs: daemonProcs}, audit.New(daemonProcs, s, audit.OptionsForKind("easy", pol)), nil)
	if err != nil {
		return err
	}
	next := 0
	submit := func(req serve.SubmitRequest) int {
		next++
		j := &job.Job{ID: next, Runtime: req.Runtime, Estimate: max(req.Estimate, req.Runtime), Width: req.Width, User: req.User}
		if sess.Submit(j) != nil || sess.AdvanceTo(0) != nil {
			return 0
		}
		return next
	}
	if submit(c.pin) == 0 {
		return fmt.Errorf("bare session refused the pin job")
	}
	live := make([]int, 0, len(c.fill)+64)
	for _, f := range c.fill {
		live = append(live, submit(f))
	}
	sp := pc.tr.begin(pc.traced.span, "probe: sim.Session", "sim")
	defer pc.tr.finish(sp)
	ds := make([]time.Duration, 0, c.writes)
	failed, _ := c.play(live,
		func(k int) int {
			t0 := time.Now()
			id := submit(c.subs[k])
			ds = append(ds, time.Since(t0))
			return id
		},
		func(id int) bool {
			t0 := time.Now()
			ok := sess.Cancel(id)
			ds = append(ds, time.Since(t0))
			return ok
		})
	if failed > 0 {
		return fmt.Errorf("bare session: %d writes failed", failed)
	}
	pc.out["sim.session_write_us"] = p50of(ds)
	return nil
}
