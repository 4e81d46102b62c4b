package serve

// Replication: the leader half of WAL shipping, plus the server-side
// follower plumbing internal/replica drives.
//
// A leader is any server with an open journal. It streams CRC-framed
// journal lines over GET /v1/wal — the exact bytes Append wrote, copied
// from the segment once each frame has validated, so a follower applies
// what the leader committed, not a re-encoding — and remembers each
// registered follower's acknowledged position so checkpoint pruning keeps
// the segments a lagging follower still needs (the retention floor). Each
// registered follower's Tailer waits beside that position between pulls,
// so a pull costs O(bytes returned), on disk and over HTTP. When a
// follower's position has nonetheless been pruned, the endpoint falls back
// to a full-checkpoint resync: the newest checkpoint's meta line followed
// by its compacted ops and the tail, which the follower replays through
// the same cross-checked recovery path boot uses.
//
// A follower is a server built with Options.Follower: no scheduler loop,
// writes fenced with 421, snapshots published by an external applier
// calling ApplyRecords. Promotion — the failover path — attaches a journal,
// fences the old lineage with a term record, and lifts the write fence;
// the journal directory's flock is the mutual exclusion that makes a
// promotion race (two candidates, or a revived old leader) lose loudly
// instead of forking history.

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// logger reports replication events worth an operator's attention (follower
// expiry, forced resyncs, promotions). Tests may silence it.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "serve")

// FollowerTTL is how long a registered follower's acknowledged position
// pins the retention floor — and keeps the follower eligible for read
// routing and quorum counting — after its last poll. An expired follower
// that comes back may find its position pruned and be forced into a full
// resync — loud, but bounded disk beats unbounded retention for a dead
// replica. Exported so internal/fed applies the same liveness rule when
// balancing reads across follower views.
const FollowerTTL = time.Minute

// walPollInterval paces the long-poll wait loop in the /v1/wal handler.
const walPollInterval = 20 * time.Millisecond

// maxWALBatch bounds how many records one /v1/wal response carries.
const maxWALBatch = 4096

// followerAck is one registered follower's replication position.
type followerAck struct {
	acked    uint64
	addr     string // advertised read URL, "" when the follower serves none
	lastSeen time.Time
	tl       *wal.Tailer // parked where the last pull ended; nil while a pull holds it
}

// FollowerView is one registered follower's position as published on the
// registry's lock-free view pointer: everything a read balancer needs to
// decide eligibility — identity, advertised read address, acknowledged
// journal position, and the wall instant of the last ack (for the
// FollowerTTL liveness rule). Views are sorted by ID so consumers that
// index into them (round-robin spreading, fuzzing) are deterministic.
type FollowerView struct {
	// ID is the follower's self-chosen registration name.
	ID string
	// Addr is the read URL the follower advertised at registration; empty
	// means the follower replicates but serves no reads.
	Addr string
	// Acked is the last journal seq the follower has durably applied.
	Acked uint64
	// LastSeen is the wall time of the follower's latest /v1/wal poll.
	LastSeen time.Time
}

// followerRegistry tracks registered followers' acknowledged positions. It
// is written by HTTP goroutines serving /v1/wal, read by the scheduler
// goroutine at checkpoint time (retention floor) and commit time (quorum
// acks), and consumed lock-free by the federation read balancer through
// the published views pointer.
type followerRegistry struct {
	mu     sync.Mutex
	acks   map[string]*followerAck
	notify chan struct{} // closed on every ack; nil until a waiter or ack creates it

	// views is the lock-free publication of the registry: rebuilt under mu
	// on every mutation, read by any goroutine without taking the lock.
	views atomic.Pointer[[]FollowerView]
}

// ack records that follower id has durably applied through seq, updates
// its advertised read address, and wakes quorum waiters.
func (fr *followerRegistry) ack(id string, seq uint64, addr string, now time.Time) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.acks == nil {
		fr.acks = make(map[string]*followerAck)
	}
	a := fr.acks[id]
	if a == nil {
		a = &followerAck{}
		fr.acks[id] = a
	}
	if seq > a.acked || a.acked == 0 {
		a.acked = seq
	}
	if addr != "" {
		a.addr = addr
	}
	a.lastSeen = now
	fr.republishLocked()
	if fr.notify != nil {
		close(fr.notify)
		fr.notify = nil
	}
}

// takeTailer hands out follower id's parked Tailer when it stands exactly
// at after, the position the follower pulls from: the Tailer then resumes
// at its byte offset instead of scanning the segment for its place. A
// Tailer is single-goroutine, so it leaves the registry while a pull uses
// it; nil means the caller must position a fresh one.
func (fr *followerRegistry) takeTailer(id string, after uint64) *wal.Tailer {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	a := fr.acks[id]
	if a == nil || a.tl == nil || a.tl.Seq() != after {
		return nil
	}
	tl := a.tl
	a.tl = nil
	return tl
}

// parkTailer keeps tl for follower id's next pull.
func (fr *followerRegistry) parkTailer(id string, tl *wal.Tailer) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if a := fr.acks[id]; a != nil {
		a.tl = tl
	}
}

// republishLocked rebuilds the lock-free views slice. Caller holds mu.
func (fr *followerRegistry) republishLocked() {
	out := make([]FollowerView, 0, len(fr.acks))
	for id, a := range fr.acks {
		out = append(out, FollowerView{ID: id, Addr: a.addr, Acked: a.acked, LastSeen: a.lastSeen})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	fr.views.Store(&out)
}

// Views returns the latest published follower views without locking.
func (fr *followerRegistry) Views() []FollowerView {
	if p := fr.views.Load(); p != nil {
		return *p
	}
	return nil
}

// floor returns the minimum acknowledged seq across live followers —
// the retention floor — expiring silent ones.
func (fr *followerRegistry) floor(now time.Time) uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	min := ^uint64(0)
	expired := false
	for id, a := range fr.acks {
		if now.Sub(a.lastSeen) > FollowerTTL {
			logger.Warn("follower silent, retention pin dropped",
				"follower", id, "silent", now.Sub(a.lastSeen).Round(time.Second), "seq", a.acked)
			delete(fr.acks, id)
			expired = true
			continue
		}
		if a.acked < min {
			min = a.acked
		}
	}
	if expired {
		fr.republishLocked()
	}
	return min
}

// liveAckedLocked counts followers whose acknowledged position covers seq
// AND whose last poll is within FollowerTTL of now. The liveness re-check
// is load-bearing: a registry entry left behind by a follower that died
// (or went silent) mid-batch must not satisfy a quorum — its process may
// hold nothing, so counting it would acknowledge a write that exists on
// fewer replicas than the operator asked for. Caller holds mu.
func (fr *followerRegistry) liveAckedLocked(seq uint64, now time.Time) int {
	n := 0
	for _, a := range fr.acks {
		if a.acked >= seq && now.Sub(a.lastSeen) <= FollowerTTL {
			n++
		}
	}
	return n
}

// waitQuorum blocks until k followers are live (per FollowerTTL, re-read
// at every check — never from a stale count taken when the batch was
// staged) and have acknowledged seq, or until timeout. It returns whether
// the quorum was met. Called under Server.mu between a commit
// and the release of the batch's done-channels; acks arrive on HTTP
// goroutines, which wake this wait through the notify channel.
func (fr *followerRegistry) waitQuorum(seq uint64, k int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		now := time.Now()
		fr.mu.Lock()
		if fr.liveAckedLocked(seq, now) >= k {
			fr.mu.Unlock()
			return true
		}
		if fr.notify == nil {
			fr.notify = make(chan struct{})
		}
		ch := fr.notify
		fr.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			// One last look: an ack may have landed as the timer fired.
			fr.mu.Lock()
			ok := fr.liveAckedLocked(seq, time.Now()) >= k
			fr.mu.Unlock()
			return ok
		}
	}
}

// FollowerStatus is one registered follower's row in ReplicationInfo.
type FollowerStatus struct {
	// ID is the follower's registration name; AckedSeq its acknowledged
	// journal position; AgeSec the seconds since its last poll.
	ID       string  `json:"id"`
	AckedSeq uint64  `json:"acked_seq"`
	AgeSec   float64 `json:"age_sec"`
	// Addr is the read URL the follower advertised, if any.
	Addr string `json:"addr,omitempty"`
}

// followerStatuses renders the published views for GET /v1/debug/stats.
func followerStatuses(views []FollowerView, now time.Time) []FollowerStatus {
	out := make([]FollowerStatus, len(views))
	for i, v := range views {
		out[i] = FollowerStatus{ID: v.ID, AckedSeq: v.Acked, AgeSec: now.Sub(v.LastSeen).Seconds(), Addr: v.Addr}
	}
	return out
}

// ReplicationInfo is the replication section of GET /v1/debug/stats. A
// leader fills the journal-side fields; internal/replica renders the
// follower-side ones.
type ReplicationInfo struct {
	// Role is "leader" (journal open), "follower" (replicating), or
	// "standalone" (no journal, nothing to ship).
	Role string `json:"role"`
	// Term is the current leadership term: 0 for a lineage that has never
	// failed over, incremented by every promotion.
	Term uint64 `json:"term"`
	// Seq is the last durable journal record (leader side).
	Seq uint64 `json:"seq,omitempty"`
	// Source is the leader a follower replicates from.
	Source string `json:"source,omitempty"`
	// AppliedSeq/LeaderSeq/LagOps/LagVirtual describe a follower's position
	// relative to its leader; LagVirtual is in virtual seconds.
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	LeaderSeq  uint64 `json:"leader_seq,omitempty"`
	LagOps     uint64 `json:"lag_ops"`
	LagVirtual int64  `json:"lag_virtual_time"`
	// RetainFloor is the leader's current pruning floor (only meaningful
	// while followers are registered).
	RetainFloor uint64           `json:"retain_floor,omitempty"`
	Followers   []FollowerStatus `json:"followers,omitempty"`
	// AckQuorum is the number of follower confirmations each commit batch
	// waits for before acknowledging writes (0: leader-ack only).
	AckQuorum int `json:"ack_quorum,omitempty"`
	// Promoted marks a follower that has taken over as leader.
	Promoted bool `json:"promoted,omitempty"`
}

// replication reports this server's leader-side replication state.
func (s *Server) replication() ReplicationInfo {
	info := ReplicationInfo{Role: "standalone", Term: s.termPub.Load()}
	if s.followerMode.Load() {
		info.Role = "follower"
		info.Source = s.opts.Follower
		return info
	}
	if dir := s.walDirPub.Load(); dir != nil {
		now := time.Now()
		info.Role = "leader"
		info.Seq = s.walSeq.Load()
		info.Followers = followerStatuses(s.flw.Views(), now)
		if f := s.flw.floor(now); f != ^uint64(0) {
			info.RetainFloor = f
		}
		info.AckQuorum = s.opts.Durability.AckQuorum
	}
	return info
}

// FollowerViews returns the latest published view of this leader's
// registered followers — the lock-free feed the federation read balancer
// spreads reads from. Safe from any goroutine; the slice is immutable.
func (s *Server) FollowerViews() []FollowerView { return s.flw.Views() }

// DurableSeq returns the last durable journal sequence number (0 without a
// journal). Safe from any goroutine.
func (s *Server) DurableSeq() uint64 { return s.walSeq.Load() }

// Term returns the current leadership term. Safe from any goroutine.
func (s *Server) Term() uint64 { return s.termPub.Load() }

// followerWriteError is the 421 every write on a follower gets: the
// request reached a server that cannot own it, and the body names the one
// that can.
func (s *Server) followerWriteError(verb string) error {
	return &clientError{
		code: http.StatusMisdirectedRequest,
		err:  fmt.Errorf("serve: follower replica of %s: %s writes on the leader", s.opts.Follower, verb),
	}
}

// ApplyRecords applies a batch of journaled operations from an external
// source and publishes one snapshot for the whole batch, mirroring the
// leader's one-publish-per-commit-batch cadence. It frames the records for
// the replay history; a follower, which holds the frames it pulled, calls
// ApplyFramed instead. Only the applier goroutine may call it, never
// concurrently with a running scheduler loop.
func (s *Server) ApplyRecords(recs []wal.Record) error {
	frames := s.histFrames[:0]
	for _, r := range recs {
		var err error
		if frames, err = wal.EncodeRecord(frames, r); err != nil {
			return fmt.Errorf("serve: frame record seq %d: %w", r.Seq, err)
		}
	}
	s.histFrames = frames
	return s.ApplyFramed(recs, frames)
}

// ApplyFramed is ApplyRecords for records that come with their frames:
// frames holds each record's CRC-framed line, in order, as the journal
// reader yielded it, and the replay history keeps those bytes as they
// are. It is what a follower's apply costs: the decode its source did and
// the apply, with no second encode.
func (s *Server) ApplyFramed(recs []wal.Record, frames []byte) error {
	for _, r := range recs {
		nl := bytes.IndexByte(frames, '\n')
		if nl < 0 {
			return fmt.Errorf("serve: record seq %d has no frame", r.Seq)
		}
		if err := s.apply(r); err != nil {
			return fmt.Errorf("serve: apply record seq %d: %w", r.Seq, err)
		}
		s.hist.AddFrame(r, frames[:nl+1])
		frames = frames[nl+1:]
	}
	s.walVer = s.sess.Version()
	s.publishHistory()
	s.publish()
	return nil
}

// Bootstrap replays a loaded journal state into a fresh, never-Run server
// — the follower's full-resync path. It runs the same cross-checked
// recovery boot uses on its own journal (state hash, clock, counters), so
// a resync lands byte-identically where the leader's checkpoint stood.
func (s *Server) Bootstrap(st *wal.State) error {
	if err := s.recover(st); err != nil {
		return err
	}
	for _, r := range st.Ops() {
		if err := s.hist.Append(r); err != nil {
			return fmt.Errorf("serve: keep record seq %d: %w", r.Seq, err)
		}
	}
	s.publishHistory()
	s.publish()
	return nil
}

// publishHistory mirrors the replay history's size — the journal's on a
// leader, the applier's own on a follower — into its gauges, which HTTP
// goroutines render while the owner goes on appending.
func (s *Server) publishHistory() {
	n, size := s.hist.Len(), s.hist.Size()
	if s.log != nil {
		n, size = s.log.HistoryLen(), s.log.HistorySize()
	}
	s.ins.histRecords.Set(int64(n))
	s.ins.histBytes.Set(int64(size))
}

// Promote turns a follower into a leader. dir is the journal to own from
// here on: the leader's own directory for a shared-disk takeover (the
// flock is the fence — a still-live leader makes Open fail with
// ErrLocked, and the promotion is refused), or an empty/fresh directory
// that gets seeded with the follower's replicated history. applied is the
// last seq the applier has fed through ApplyRecords; any unapplied tail
// found in the journal is replayed first, so nothing acknowledged by the
// old leader is lost. The new lineage is fenced with a term record and an
// immediate checkpoint. With dir == "" the follower promotes in-memory
// only. The caller must not be running ApplyRecords concurrently, and
// should start Run after Promote returns.
func (s *Server) Promote(dir string, fsync bool, applied uint64) (uint64, error) {
	if !s.followerMode.Load() {
		return 0, errors.New("serve: not a follower")
	}
	term := s.termPub.Load() + 1
	if dir != "" {
		l, st, err := wal.Open(dir, wal.Options{Fsync: fsync, Notify: s.notifyAppend})
		if err != nil {
			return 0, fmt.Errorf("serve: promote: %w", err)
		}
		ckptSeq := uint64(0)
		if st.Checkpoint != nil {
			ckptSeq = st.Checkpoint.Seq
			if got, want := s.config(), st.Checkpoint.Config; got != want {
				l.Close()
				return 0, fmt.Errorf("serve: promote: journal %s was written under %+v, follower is configured %+v", dir, want, got)
			}
		}
		switch {
		case st.NextSeq == 1 && applied > 0:
			// Fresh directory: seed the new lineage with the follower's
			// replicated history (Append assigns it fresh contiguous seqs).
			recs, err := s.hist.Records()
			if err == nil {
				err = l.Append(recs)
			}
			if err != nil {
				l.Close()
				return 0, fmt.Errorf("serve: promote: seeding journal: %w", err)
			}
		case applied < ckptSeq:
			l.Close()
			return 0, fmt.Errorf("serve: promote: follower applied through seq %d but the journal's checkpoint covers %d — resync before promoting", applied, ckptSeq)
		default:
			// Shared-directory takeover: finish replaying whatever tail the
			// dead leader committed past our applied position.
			for _, r := range st.Tail {
				if r.Seq <= applied {
					continue
				}
				if err := s.apply(r); err != nil {
					l.Close()
					return 0, fmt.Errorf("serve: promote: finishing tail replay at seq %d: %w", r.Seq, err)
				}
			}
		}
		s.log = l // its history now holds the lineage's
		s.ckptAt = time.Now()
		s.note(wal.Record{Op: wal.OpTerm, Term: term})
		if err := s.commitWAL(); err != nil {
			return 0, err
		}
		if err := s.checkpoint(); err != nil {
			return 0, err
		}
		s.walDirPub.Store(&dir)
	}
	s.hist = wal.History{}
	s.publishHistory()
	s.termPub.Store(term)
	s.walVer = s.sess.Version()
	s.followerMode.Store(false)
	s.publish()
	logger.Info("promoted to leader", "term", term, "journal", dir, "seq", s.walSeq.Load())
	return term, nil
}

// ServeWAL is the leader's journal-shipping endpoint:
//
//	GET /v1/wal?from=N[&follower=ID][&addr=URL][&wait=DUR][&max=N]
//
// It streams CRC-framed journal lines starting at seq N (text/plain, the
// exact bytes on disk: each frame is validated, then copied, never
// re-encoded). N may be at most one past the journal's appended position —
// which runs ahead of the durable one while a batch's fsync is in flight,
// and followers are woken to read exactly then; beyond it the caller is on
// another lineage and gets 409. With follower=ID a valid caller's position
// (N-1) is registered for the retention floor, for quorum-ack counting, and
// — when addr=URL names the follower's own read endpoint — for the
// federation read balancer, which will route eligible reads to that URL;
// the follower's Tailer is kept between pulls, so a pull that continues
// where the last one ended reads only the bytes it returns. With wait, an
// up-to-date caller long-polls until new records land or the wait expires,
// past the server's write timeout if need be. When N has been pruned the response is a full-checkpoint resync instead,
// marked with X-Schedd-Resync: 1: one meta line, then the checkpoint's
// compacted ops and the tail. Every response carries X-Schedd-Seq (last
// durable seq), X-Schedd-Term, and X-Schedd-Now (published virtual time) so
// followers can measure lag. Exported so internal/fed can mount per-shard
// streams.
func (s *Server) ServeWAL(w http.ResponseWriter, r *http.Request) {
	dirp := s.walDirPub.Load()
	if dirp == nil {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "serve: no journal to replicate (daemon is in-memory or an unpromoted follower)"})
		return
	}
	dir := *dirp
	q := r.URL.Query()
	from := uint64(1)
	if v := q.Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n < 1 {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad from seq"})
			return
		}
		from = n
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad wait duration"})
			return
		}
		if d > 30*time.Second {
			d = 30 * time.Second
		}
		wait = d
	}
	max := maxWALBatch
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad max"})
			return
		}
		if n < max {
			max = n
		}
	}
	if appended := s.walAppended.Load(); from > appended+1 {
		WriteJSON(w, http.StatusConflict, ErrorResponse{Error: fmt.Sprintf(
			"serve: follower is ahead of this journal (from %d, appended %d) — diverged lineage?", from, appended)})
		return
	}
	id := q.Get("follower")
	var tl *wal.Tailer
	if id != "" {
		s.flw.ack(id, from-1, q.Get("addr"), time.Now())
		tl = s.flw.takeTailer(id, from-1)
	}
	if tl == nil {
		tl = wal.NewTailer(dir, from-1)
	}

	if wait > 0 {
		// A long poll may outlast the server's write timeout, so it lifts
		// the deadline for its own response. A writer without one cannot.
		if err := http.NewResponseController(w).SetWriteDeadline(time.Time{}); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return
		}
	}
	deadline := time.Now().Add(wait)
	var buf []byte
	for {
		// Take the append channel before looking at the journal: an append
		// that lands between the look and the wait closes this channel.
		var notify <-chan struct{}
		if wait > 0 {
			notify = s.appendNotify()
		}
		read := tl.BytesRead()
		var n int
		var err error
		buf, n, err = tl.NextFrames(buf, max)
		s.ins.pullRecords.Add(int64(n))
		s.ins.pullBytes.Add(tl.BytesRead() - read)
		if errors.Is(err, wal.ErrGone) {
			s.serveResync(w, r, dir, from)
			return
		}
		if err != nil {
			WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
			return
		}
		if n > 0 || time.Now().After(deadline) {
			s.walHeaders(w)
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write(buf)
			if id != "" {
				s.flw.parkTailer(id, tl)
			}
			return
		}
		// Wake on the next commit's append notification rather than only on
		// the poll tick: long-polling followers see new records (and can
		// confirm them for a quorum) within a round-trip of the append, not
		// within walPollInterval. The poll tick stays as a fallback.
		select {
		case <-r.Context().Done():
			return
		case <-notify:
		case <-time.After(walPollInterval):
		}
	}
}

// serveResync ships the newest checkpoint plus tail — the follower's
// incremental position was pruned, so it must rebuild from scratch. This
// is the loud path: pruning outran a follower the retention floor did not
// (or could not) cover.
func (s *Server) serveResync(w http.ResponseWriter, r *http.Request, dir string, from uint64) {
	st, err := wal.Load(dir)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	if st.Checkpoint == nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "serve: journal pruned with no checkpoint — corrupt directory"})
		return
	}
	n := s.ins.resyncs.Add(1)
	logger.Warn("follower forced into full-checkpoint resync",
		"follower", r.URL.Query().Get("follower"), "seq", from-1, "checkpoint", st.Checkpoint.Seq, "resync", n)
	buf, err := wal.EncodeMeta(nil, *st.Checkpoint)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	for _, rec := range st.Ops() {
		if buf, err = wal.EncodeRecord(buf, rec); err != nil {
			WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
			return
		}
	}
	s.walHeaders(w)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Schedd-Resync", "1")
	w.Header().Set("X-Schedd-Ckpt", strconv.FormatUint(st.Checkpoint.Seq, 10))
	w.Write(buf)
}

// walHeaders attaches the leader-position headers every /v1/wal response
// carries.
func (s *Server) walHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set("X-Schedd-Seq", strconv.FormatUint(s.walSeq.Load(), 10))
	h.Set("X-Schedd-Term", strconv.FormatUint(s.termPub.Load(), 10))
	if snap := s.snap.Load(); snap != nil {
		h.Set("X-Schedd-Now", strconv.FormatInt(snap.SimNow, 10))
	}
}
