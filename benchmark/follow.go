package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/audit"
	"repro/internal/job"
	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wal"
	wgen "repro/internal/workload"
)

// followBatch is the replica's pull size: records per Sync, and so per
// published snapshot.
const followBatch = 64

// followSlice is the pulls in a slice, about 100 ms.
const followSlice = 32

// follow is replication and recovery: a directory follower catches up on
// a journal in which virtual time advances, so the scheduler runs real
// incremental passes.
type follow struct {
	jobs    int
	workdir string
	golden  *followGolden // nil: no golden for these inputs

	dir        string // the journal
	records    uint64
	leaderHash uint64
	recovery   time.Duration
}

// tailQ is p95: a round's 625 pulls leave 31 beyond it, and 6 beyond p99.
func (f *follow) tailQ() float64              { return 0.95 }
func (f *follow) nominalRound() time.Duration { return 1800 * time.Millisecond }

func (f *follow) cleanup() {
	if f.dir != "" {
		os.RemoveAll(f.dir)
		f.dir = ""
	}
}

// prepare turns a CTC-model trace into the journal a leader would have
// written while the trace arrived — an advance to each arrival instant and
// the submission — and recovers a leader from it for the reference hash.
func (f *follow) prepare(seed int64) error {
	// As on study, the job stream is fixed and the seed redraws the user
	// estimates: a stream of its own per seed moved allocs_per_op by 1.6 %
	// between seeds, half its bound, with no code changed.
	m, err := wgen.NewCTC(studyLoad)
	if err != nil {
		return err
	}
	jobs, err := m.Generate(f.jobs, streamSeed)
	if err != nil {
		return err
	}
	jobs = wgen.ApplyEstimates(jobs, wgen.Actual{}, stats.NewRNG(seed).Int63())

	dir, err := os.MkdirTemp(f.workdir, "leader-")
	if err != nil {
		return err
	}
	f.dir = dir
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	for _, j := range jobs {
		err := log.Append([]wal.Record{
			{Op: wal.OpAdvance, To: j.Arrival},
			{Op: wal.OpSubmit, Job: &wal.JobRec{ID: j.ID, Arrival: j.Arrival, Runtime: j.Runtime, Estimate: j.Estimate, Width: j.Width, User: j.User}},
		})
		if err != nil {
			log.Close()
			return err
		}
	}
	f.records = log.Seq()
	if err := log.Close(); err != nil {
		return err
	}

	t0 := time.Now()
	leader, err := serve.New(daemonOptions(dir))
	if err != nil {
		return fmt.Errorf("leader recovery: %w", err)
	}
	f.recovery = time.Since(t0)
	f.leaderHash = leader.StateHash()
	return leader.Close()
}

func (f *follow) round(rc *roundCtx) error {
	opts := daemonOptions("")
	rep, err := replica.New(replica.Options{Source: f.dir, Serve: opts, MaxBatch: followBatch})
	if err != nil {
		return err
	}
	rc.keep = rep
	rc.release = func() { rep.Close() }
	pulls := 0
	rc.start()
	for rep.AppliedSeq() < f.records {
		before := rep.AppliedSeq()
		op := rc.tr.begin(rc.span, "replica.Sync", "replica")
		t0 := time.Now()
		err := rep.Sync()
		rc.sample(time.Since(t0))
		rc.tr.finish(op)
		if err != nil {
			return err
		}
		if rep.AppliedSeq() == before {
			return fmt.Errorf("follower stuck at seq %d of %d", before, f.records)
		}
		if pulls++; pulls%followSlice == 0 {
			rc.mark()
		}
	}
	rc.stop(int(f.records))
	if rep.AppliedSeq() != f.records || rep.Server().StateHash() != f.leaderHash {
		rc.failed = int(f.records)
	}
	return nil
}

// verify compares the recovered leader with the golden; the follower was
// compared with the leader when its round ended.
func (f *follow) verify(*roundCtx) (int, error) {
	if f.golden != nil && (f.golden.Records != int(f.records) || f.golden.StateHash != hex(f.leaderHash)) {
		return int(f.records), nil
	}
	return 0, nil
}

func (f *follow) probe(pc *probeCtx) error {
	n := float64(f.records)
	perRec := func(d time.Duration) float64 { return micros(d) / n }
	span := func(name, layer string) func() {
		id := pc.tr.begin(pc.traced.span, "probe: "+name, layer)
		return func() { pc.tr.finish(id) }
	}
	pc.out["replica.sync_us_per_rec"] = perRec(pc.traced.wall)
	pc.out["serve.recover_s"] = f.recovery.Seconds()

	end := span("wal.Load", "wal")
	t0 := time.Now()
	if _, err := wal.Load(f.dir); err != nil {
		return err
	}
	pc.out["wal.load_s"] = time.Since(t0).Seconds()
	end()

	// The follower's two halves apart: reading the journal, then applying
	// the batches it read. The timed pass drops each batch as the follower
	// does; a second pass keeps them for the replays below.
	readAll := func(keep bool) ([][]wal.Record, error) {
		var batches [][]wal.Record
		tl := wal.NewTailer(f.dir, 0)
		for tl.Seq() < f.records {
			recs, err := tl.Next(followBatch)
			if err != nil {
				return nil, err
			}
			if len(recs) == 0 {
				return nil, fmt.Errorf("tailer stopped at %d of %d records", tl.Seq(), f.records)
			}
			if keep {
				batches = append(batches, recs)
			}
		}
		return batches, nil
	}
	end = span("wal.Tailer.Next", "wal")
	t0 = time.Now()
	if _, err := readAll(false); err != nil {
		return err
	}
	tail := time.Since(t0)
	end()
	batches, err := readAll(true)
	if err != nil {
		return err
	}

	opts := daemonOptions("")
	opts.Follower = f.dir
	mirror, err := serve.New(opts)
	if err != nil {
		return err
	}
	end = span("serve.ApplyRecords", "serve")
	t0 = time.Now()
	for _, b := range batches {
		if err := mirror.ApplyRecords(b); err != nil {
			return err
		}
	}
	apply := time.Since(t0)
	end()
	if mirror.StateHash() != f.leaderHash {
		return fmt.Errorf("probe mirror diverged from the leader")
	}

	// The engine under the serving layer: the same records into a bare
	// audited session, once plain for its time and once with the timing
	// wrappers for the scheduler's and the auditor's shares.
	end = span("sim.Session", "sim")
	session, _, err := f.replaySession(batches, false)
	end()
	if err != nil {
		return err
	}
	end = span("sim.Session timed", "sim")
	_, accs, err := f.replaySession(batches, true)
	end()
	if err != nil {
		return err
	}

	pc.out["wal.tail_us_per_rec"] = perRec(tail)
	pc.out["serve.apply_us_per_rec"] = perRec(apply)
	pc.out["replica.self_us_per_rec"] = perRec(pc.traced.wall - tail - apply)
	pc.out["sim.session_us_per_rec"] = perRec(session)
	pc.out["serve.publish_us_per_batch"] = perRec(apply-session) * followBatch
	pc.out["sched.busy_us_per_rec"] = perRec(accs[0].busy())
	pc.out["audit.us_per_rec"] = perRec(accs[1].busy() - accs[0].busy())
	return nil
}

// replaySession applies the journal to a bare audited session and returns
// the time it took; with timedRun it also returns what the wrappers around
// the scheduler [0] and around the auditor [1] measured.
func (f *follow) replaySession(batches [][]wal.Record, timedRun bool) (time.Duration, [2]schedAcc, error) {
	var accs [2]schedAcc
	opts := daemonOptions("")
	pol, err := sched.PolicyByName(opts.Policy)
	if err != nil {
		return 0, accs, err
	}
	mk, err := sched.MakerFor(opts.Scheduler, pol)
	if err != nil {
		return 0, accs, err
	}
	s := mk(opts.Procs)
	if timedRun {
		if s, err = wrapTimed(s, &accs[0]); err != nil {
			return 0, accs, err
		}
	}
	aud := audit.New(opts.Procs, s, audit.OptionsForKind(opts.Scheduler, pol))
	s = aud
	if timedRun {
		if s, err = wrapTimed(s, &accs[1]); err != nil {
			return 0, accs, err
		}
	}
	sess, err := sim.Open(sim.Machine{Procs: opts.Procs}, s, nil)
	if err != nil {
		return 0, accs, err
	}
	t0 := time.Now()
	for _, b := range batches {
		for _, r := range b {
			switch r.Op {
			case wal.OpAdvance:
				err = sess.AdvanceTo(r.To)
			case wal.OpSubmit:
				err = sess.Submit(&job.Job{ID: r.Job.ID, Arrival: r.Job.Arrival, Runtime: r.Job.Runtime, Estimate: r.Job.Estimate, Width: r.Job.Width, User: r.Job.User})
			}
			if err != nil {
				return 0, accs, err
			}
		}
	}
	d := time.Since(t0)
	if err := aud.Err(); err != nil {
		return 0, accs, err
	}
	if !timedRun && sess.StateHash() != f.leaderHash {
		return 0, accs, fmt.Errorf("bare session diverged from the leader")
	}
	return d, accs, nil
}
