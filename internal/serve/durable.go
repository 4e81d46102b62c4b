package serve

// Durability wiring: the serve loop journals every accepted mutation into
// internal/wal before the mutating handler is released, and replays the
// journal at boot. The Log is guarded by Server.mu like the session, so the
// lock-free read path is untouched — readers keep rendering snapshots and
// never see the journal at all. Group commit falls out of the existing
// batching: runBatch stages one record per mutation and commits the whole
// batch with a single buffered write (and, with Fsync, a single sync)
// before any waiter is released, so a burst of N acknowledged submits
// costs one disk round-trip instead of N.
//
// Recovery leans on the session's determinism. Boot replays the newest
// valid checkpoint's compacted op prefix, cross-checks the state hash the
// checkpointing daemon pinned, then replays the journal tail. Any
// divergence — hash, clock, next job ID, counters, configuration — fails
// loudly instead of resuming from silently wrong state.

import (
	"fmt"
	"time"

	"repro/internal/job"
	"repro/internal/wal"
)

// DurabilityOptions configure the write-ahead journal. The zero value (no
// Dir) disables durability entirely.
type DurabilityOptions struct {
	// Dir is the journal directory. Empty disables the WAL.
	Dir string
	// Fsync syncs the journal once per commit batch before writes are
	// acknowledged. Off, acknowledged writes survive a process crash
	// (SIGKILL) via the page cache but not a machine crash; see
	// PERFORMANCE.md for the measured tradeoff.
	Fsync bool
	// CheckpointEvery bounds how long the replay tail can grow in wall
	// time; checked when the loop wakes up. Defaults to one minute.
	CheckpointEvery time.Duration
	// CheckpointOps checkpoints after this many journal records past the
	// previous checkpoint. Defaults to 4096.
	CheckpointOps int
	// AckQuorum holds each commit batch's acknowledgements until this many
	// followers — live per the FollowerTTL rule at commit time, not merely
	// registered — have confirmed the batch's max seq through the /v1/wal
	// ack channel. 0 (the default) acknowledges on the leader's own commit
	// alone. Synchronous replication: an acknowledged write survives the
	// loss of the leader AND any AckQuorum-1 followers.
	AckQuorum int
	// QuorumTimeout bounds the per-batch quorum wait. Defaults to 2s.
	QuorumTimeout time.Duration
	// QuorumDegrade picks the availability side of a quorum miss: after
	// QuorumTimeout the batch is acknowledged on the leader's commit alone
	// (counted as quorum_degraded on GET /v1/debug/stats). Off, the batch's writes
	// fail with 503 (the records remain in the leader's journal — the
	// client must treat their fate as unknown).
	QuorumDegrade bool
}

func (d DurabilityOptions) withDefaults() DurabilityOptions {
	if d.CheckpointEvery <= 0 {
		d.CheckpointEvery = time.Minute
	}
	if d.CheckpointOps <= 0 {
		d.CheckpointOps = 4096
	}
	if d.QuorumTimeout <= 0 {
		d.QuorumTimeout = 2 * time.Second
	}
	return d
}

// RecoveryInfo summarises what boot recovery found and replayed; it is
// surfaced in GET /v1/debug/stats and in the daemon's startup log.
type RecoveryInfo struct {
	// CheckpointSeq is the journal position of the checkpoint recovery
	// started from; 0 means recovery replayed from genesis.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CheckpointOps counts the compacted operations replayed out of the
	// checkpoint; TailRecords counts the journal records replayed past it.
	CheckpointOps int `json:"checkpoint_ops"`
	TailRecords   int `json:"tail_records"`
	// TruncatedBytes is the size of the torn final record removed from the
	// active segment — the expected residue of a crash mid-append.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Warnings carry non-fatal recovery oddities (e.g. an unreadable newer
	// checkpoint skipped for an older valid one).
	Warnings []string `json:"warnings,omitempty"`
}

// Replayed reports whether boot applied any journaled operation.
func (ri *RecoveryInfo) Replayed() bool { return ri.CheckpointOps > 0 || ri.TailRecords > 0 }

// DurabilityInfo is where the journal stands relative to the serving
// state: the durability section of GET /v1/debug/stats.
type DurabilityInfo struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Fsync   bool   `json:"fsync"`
	// SnapshotVersion is the published snapshot's version, which is also
	// how many snapshots this process has published; SimNow and StateHash
	// describe the live session at the moment of the probe.
	SnapshotVersion uint64 `json:"snapshot_version"`
	SimNow          int64  `json:"sim_now"`
	StateHash       uint64 `json:"state_hash,string"`
	// Seq is the last durable journal record; TailRecords is how many of
	// those a recovery right now would replay past CheckpointSeq.
	Seq              uint64  `json:"seq"`
	CheckpointSeq    uint64  `json:"checkpoint_seq"`
	TailRecords      uint64  `json:"tail_records"`
	CheckpointAgeSec float64 `json:"checkpoint_age_sec,omitempty"`
	// CheckpointInFlight reports a checkpoint write running on its own
	// goroutine; CheckpointSeq moves when it lands.
	CheckpointInFlight bool          `json:"checkpoint_in_flight"`
	Recovery           *RecoveryInfo `json:"recovery,omitempty"`
	// DecodeFallbacks is wal.DecodeFallbacks: journal records this process
	// decoded through encoding/json because they were not in the form this
	// build writes. 0 is healthy.
	DecodeFallbacks uint64 `json:"decode_fallbacks"`
}

// config is the configuration fingerprint pinned into every checkpoint;
// recovery refuses a journal written under a different one.
func (s *Server) config() wal.Config {
	c := wal.Config{
		Procs:     s.opts.Procs,
		Scheduler: s.opts.Scheduler,
		Policy:    s.opts.Policy,
		Audit:     s.opts.Audit,
	}
	// A standalone daemon (stride 1) leaves the class fields zero so its
	// journals stay interchangeable with pre-federation ones.
	if s.opts.IDStride > 1 {
		c.IDStart, c.IDStride = s.opts.IDStart, s.opts.IDStride
	}
	return c
}

// openWAL locks the data directory, recovers the durable state into the
// freshly built server, and leaves the journal positioned to append.
func (s *Server) openWAL() error {
	d := s.opts.Durability
	l, st, err := wal.Open(d.Dir, wal.Options{Fsync: d.Fsync, Notify: s.notifyAppend})
	if err != nil {
		return err
	}
	s.log = l
	s.ckptAt = time.Now()
	if err := s.recover(st); err != nil {
		l.Close()
		s.log = nil
		return err
	}
	s.walSeq.Store(l.Seq())
	s.walAppended.Store(l.Seq())
	s.publishHistory()
	dir := d.Dir
	s.walDirPub.Store(&dir)
	return nil
}

// recover replays a loaded journal into the empty server: checkpoint
// prefix, divergence cross-checks, then the tail.
func (s *Server) recover(st *wal.State) error {
	ri := &RecoveryInfo{
		TailRecords:    len(st.Tail),
		TruncatedBytes: st.TruncatedBytes,
		Warnings:       st.Warnings,
	}
	if m := st.Checkpoint; m != nil {
		ri.CheckpointSeq = m.Seq
		ri.CheckpointOps = len(st.CheckpointOps)
		if got, want := s.config(), m.Config; got != want {
			return fmt.Errorf("serve: journal %s was written under %+v, daemon is configured %+v",
				s.opts.Durability.Dir, want, got)
		}
		for _, r := range st.CheckpointOps {
			if err := s.apply(r); err != nil {
				return fmt.Errorf("serve: replaying checkpoint op seq %d: %w", r.Seq, err)
			}
		}
		if h := s.sess.StateHash(); h != m.StateHash {
			return fmt.Errorf("serve: checkpoint %d replay diverged: state hash %#x, checkpoint pinned %#x",
				m.Seq, h, m.StateHash)
		}
		if s.sess.Now() != m.SimNow || s.nextID != m.NextID ||
			s.ctr.submitted != m.Submitted || s.ctr.cancelled != m.Cancelled {
			return fmt.Errorf("serve: checkpoint %d replay diverged: clock %d/%d, next id %d/%d, submitted %d/%d, cancelled %d/%d",
				m.Seq, s.sess.Now(), m.SimNow, s.nextID, m.NextID,
				s.ctr.submitted, m.Submitted, s.ctr.cancelled, m.Cancelled)
		}
		if m.Drained {
			s.drained = true
		}
		s.ckptUnix = m.CreatedUnix
	}
	for _, r := range st.Tail {
		if err := s.apply(r); err != nil {
			return fmt.Errorf("serve: replaying journal record seq %d: %w", r.Seq, err)
		}
	}
	s.walVer = s.sess.Version()
	s.recovered = ri
	return nil
}

// apply executes one journaled operation against the session. Replay of a
// record the live daemon journaled must succeed; a refusal means the
// journal and the engine disagree, which is corruption, not a client error.
func (s *Server) apply(r wal.Record) error {
	switch r.Op {
	case wal.OpSubmit:
		if r.Job == nil {
			return fmt.Errorf("serve: submit record has no job")
		}
		j := s.replayed.Take()
		*j = job.Job{
			ID:       r.Job.ID,
			Arrival:  r.Job.Arrival,
			Runtime:  r.Job.Runtime,
			Estimate: r.Job.Estimate,
			Width:    r.Job.Width,
			User:     r.Job.User,
		}
		if err := s.sess.Submit(j); err != nil {
			return err
		}
		s.ctr.submitted++
		s.bumpNextID(j.ID)
	case wal.OpCancel:
		if !s.sess.Cancel(r.ID) {
			return fmt.Errorf("serve: journaled cancel of job %d did not apply", r.ID)
		}
		s.ctr.cancelled++
	case wal.OpAdvance:
		if err := s.sess.AdvanceTo(r.To); err != nil {
			return err
		}
		s.replayedAdvance = true
	case wal.OpFloor:
		s.bumpNextID(r.ID)
	case wal.OpTerm:
		s.termPub.Store(r.Term)
	case wal.OpDrain:
		s.drained = true
		s.replayedAdvance = true
		for {
			ok, err := s.sess.Step()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
	default:
		return fmt.Errorf("serve: unknown journal op %q", r.Op)
	}
	return nil
}

// Replay applies journal records to a server that has not started Run: the
// genesis-replay path. Tools use it to differentially check the daemon's
// own checkpoint+tail recovery — cmd/schedload's crash mode loads the dead
// daemon's journal with wal.Load, replays it here into a shadow server,
// and compares StateHash against the restarted daemon. Follower replicas
// ride the same path record batch by record batch through ApplyFramed.
func (s *Server) Replay(recs []wal.Record) error {
	return s.ApplyRecords(recs)
}

// StateHash exposes the session digest for equivalence checks. Safe only
// while the scheduler loop is not running (before Run or after it
// returns); live daemons report it through GET /v1/debug/stats.
func (s *Server) StateHash() uint64 { return s.sess.StateHash() }

// Recovery returns what boot recovery replayed, nil when the server
// started fresh (or without durability).
func (s *Server) Recovery() *RecoveryInfo { return s.recovered }

// note stages one journal record for the current commit batch and captures
// the session version it left behind, so noteAdvance can tell "events were
// delivered by the clock" apart from "a staged mutation moved the version".
func (s *Server) note(r wal.Record) {
	if s.log == nil {
		return
	}
	s.walRecs = append(s.walRecs, r)
	s.walVer = s.sess.Version()
}

// noteAdvance stages an advance record if the session processed events
// since the last staged record. The To instant is the session clock after
// the advance: replaying AdvanceTo(To) delivers exactly the instants the
// live advance did, in the same per-instant scheduling passes. When the
// version is unchanged nothing was delivered and the advance needs no
// record at all.
func (s *Server) noteAdvance() {
	if s.log == nil {
		return
	}
	if v := s.sess.Version(); v != s.walVer {
		s.walRecs = append(s.walRecs, wal.Record{Op: wal.OpAdvance, To: s.sess.Now()})
		s.walVer = v
	}
}

// commitWAL makes the staged records durable: one buffered write and, with
// Fsync, one sync for the whole batch — the group commit. Callers must not
// acknowledge the batch (signal done-channels) when it fails; the daemon
// stops instead and the waiting handlers observe ErrStopped.
func (s *Server) commitWAL() error {
	if s.log == nil || len(s.walRecs) == 0 {
		return nil
	}
	// The batch's frames are readable the moment Append writes them, before
	// its Notify runs, and a follower that reads them pulls next from one
	// past them: publish the bound ServeWAL refuses beyond first.
	s.walAppended.Store(s.log.Seq() + uint64(len(s.walRecs)))
	if err := s.log.Append(s.walRecs); err != nil {
		return err
	}
	s.walRecs = s.walRecs[:0]
	s.walSeq.Store(s.log.Seq())
	s.publishHistory()
	return nil
}

// notifyAppend is the wal.Options.Notify hook: it publishes the journal's
// appended position (commitWAL has already, before the write; Promote's
// seeding append has not) and wakes /v1/wal long-polls the instant appended
// records become readable (after the kernel write, before the fsync), so
// followers can pull, apply, and confirm a batch while the leader's own
// disk sync is still in flight — which is what lets a quorum wait usually
// find its confirmations already registered. The channel exists only
// while a long-poll has asked for one (appendNotify), so an append nobody
// waits on allocates nothing.
func (s *Server) notifyAppend(appended uint64) {
	s.walAppended.Store(appended)
	if old := s.walNotify.Swap(nil); old != nil {
		close(*old)
	}
}

// maybeCheckpoint publishes a checkpoint write that has landed, then
// starts a checkpoint when the replay tail has grown past the configured
// record count or age. Called after a commit (settle), so the journal and
// the session agree at the instant a capture pins the state hash.
func (s *Server) maybeCheckpoint() error {
	if s.log == nil {
		return nil
	}
	// Only the lock's holder takes from ckptDone: a landed write waits there.
	if s.ckpt != nil && len(s.ckptDone) == 0 {
		return nil
	}
	if err := s.awaitCheckpoint(); err != nil {
		return err
	}
	d := s.opts.Durability
	if n := s.log.TailRecords(); n > 0 && (n >= uint64(d.CheckpointOps) || time.Since(s.ckptAt) >= d.CheckpointEvery) {
		return s.startCheckpoint()
	}
	return nil
}

// startCheckpoint captures a checkpoint under the lock, on the goroutine
// that holds it — the current state's fingerprint, the sealed history and
// the segment rotation; the retention floor spares segments a registered
// follower still needs — and writes it on a goroutine of its own, which
// times the write, sends its error through ckptDone and wakes the loop,
// whose next settle publishes it. Writes acknowledged meanwhile do not
// wait for it: the previous checkpoint and the journal tail still recover
// every one.
func (s *Server) startCheckpoint() error {
	t0 := time.Now()
	s.log.SetRetainFloor(s.flw.floor(t0))
	p, err := s.log.BeginCheckpoint(wal.Meta{
		Config:    s.config(),
		SimNow:    s.sess.Now(),
		NextID:    s.nextID,
		Drained:   s.drained,
		StateHash: s.sess.StateHash(),
		Submitted: s.ctr.submitted,
		Cancelled: s.ctr.cancelled,
	})
	s.ckptAt = t0
	s.ins.ckptLoop.Observe(time.Since(t0))
	if err != nil {
		return err
	}
	s.ckpt = p
	hook := s.ckptHook
	go func() {
		if hook != nil {
			hook()
		}
		t0 := time.Now()
		err := p.Write()
		s.ins.ckptWrite.Observe(time.Since(t0))
		s.ckptDone <- err // before the wake, so the woken loop finds it
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}()
	return nil
}

// checkpoint writes a checkpoint and waits for it, after the one in flight
// if any: the drain's parting checkpoint and Promote's fence.
func (s *Server) checkpoint() error {
	if err := s.awaitCheckpoint(); err != nil {
		return err
	}
	if err := s.startCheckpoint(); err != nil {
		return err
	}
	return s.awaitCheckpoint()
}

// awaitCheckpoint waits for the checkpoint write in flight, if any, and
// publishes it: CheckpointSeq moves and the journal forgets the segments
// the write removed. A failed write stops the daemon.
func (s *Server) awaitCheckpoint() error {
	p := s.ckpt
	if p == nil {
		return nil
	}
	s.ckpt = nil
	if err := <-s.ckptDone; err != nil {
		return err
	}
	s.log.FinishCheckpoint(p)
	s.ckptUnix = time.Now().Unix()
	return nil
}

// Durability reports the journal position alongside the serving state,
// read under s.mu, so it waits out a batch in progress. On a follower the
// report is rendered from the published snapshot only — the applier
// goroutine owns the session.
func (s *Server) Durability() DurabilityInfo {
	info := DurabilityInfo{DecodeFallbacks: wal.DecodeFallbacks()}
	if s.followerMode.Load() {
		if snap := s.snap.Load(); snap != nil {
			info.SnapshotVersion = snap.Version
			info.SimNow = snap.SimNow
		}
		return info
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap := s.snap.Load(); snap != nil {
		info.SnapshotVersion = snap.Version
	}
	info.SimNow = s.sess.Now()
	info.StateHash = s.sess.StateHash()
	if s.log == nil {
		return info
	}
	info.Enabled = true
	info.Dir = *s.walDirPub.Load() // a promoted follower's is not in its options
	info.Fsync = s.opts.Durability.Fsync
	info.Seq = s.log.Seq()
	info.CheckpointSeq = s.log.CheckpointSeq()
	info.TailRecords = s.log.TailRecords()
	if s.ckptUnix > 0 {
		info.CheckpointAgeSec = time.Since(time.Unix(s.ckptUnix, 0)).Seconds()
	}
	info.CheckpointInFlight = s.ckpt != nil
	info.Recovery = s.recovered
	return info
}

// Close waits for a checkpoint write in flight, then releases the journal
// (segment file and directory lock). The loop must have exited; schedd
// defers it around Run.
func (s *Server) Close() error {
	if s.log == nil {
		return nil
	}
	err := s.awaitCheckpoint()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobRecOf is the journal image of an accepted job.
func jobRecOf(j *job.Job) *wal.JobRec {
	return &wal.JobRec{
		ID:       j.ID,
		Arrival:  j.Arrival,
		Runtime:  j.Runtime,
		Estimate: j.Estimate,
		Width:    j.Width,
		User:     j.User,
	}
}
