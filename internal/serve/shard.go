package serve

// The Shard interface is the federation-facing surface of one cluster
// scheduler, extracted from Server so internal/fed can scatter-gather over
// N of them without reaching into daemon internals. Every method is either
// a lock-free snapshot read (Current, Lookup, Queue) or rides the shard's
// own mailbox (Submit, Cancel) — a federation front end therefore inherits
// the serving layer's concurrency guarantees shard by shard: gathers never
// block a shard's write loop, and a submit is acknowledged only after it is
// durable (when journaling) and visible in the shard's published snapshot.

import (
	"context"
	"errors"

	"repro/internal/job"
	"repro/internal/wal"
)

// Shard is one independent cluster scheduler behind a federation front
// end: its own scheduler goroutine, snapshot publisher, and (optionally)
// write-ahead journal. *Server is the canonical implementation.
type Shard interface {
	// Submit routes one job to this shard's scheduler and returns the
	// accepted job's view, rendered from a snapshot that includes it.
	Submit(req SubmitRequest) (JobView, error)
	// Cancel withdraws a job this shard owns.
	Cancel(id int) error
	// Lookup renders one job's view (with a start forecast for waiting
	// jobs) from the latest published snapshot. It never blocks on the
	// scheduler loop.
	Lookup(id int) (JobView, bool)
	// Queue renders the whole-shard queue listing from the latest
	// published snapshot, forecasts attached.
	Queue() QueueResponse
	// Current returns the latest published snapshot (never nil).
	Current() *Snapshot
	// Preload submits a replay workload before Run starts.
	Preload(jobs []*job.Job) error
	// ReserveIDs marks every job ID up to and including upTo as taken,
	// journaling the reservation when the shard is durable. Valid only
	// before Run, like Preload.
	ReserveIDs(upTo int) error
	// Run drives the shard's scheduler loop until ctx is cancelled, then
	// drains. Recovery reports what boot replayed (nil for a fresh boot).
	Run(ctx context.Context) error
	Recovery() *RecoveryInfo
	// Close releases the shard's journal resources after Run has exited.
	Close() error
}

var _ Shard = (*Server)(nil)

// Submit runs one submission through the scheduler mailbox and returns the
// accepted job rendered from the snapshot published for its batch — the
// programmatic form of POST /v1/jobs, shared by the HTTP handler and the
// federation front end.
func (s *Server) Submit(req SubmitRequest) (JobView, error) {
	if s.followerMode.Load() {
		return JobView{}, s.followerWriteError("submit")
	}
	var id int
	var subErr error
	if err := s.exec(func() { id, subErr = s.submitJob(req) }); err != nil {
		return JobView{}, err
	}
	if subErr != nil {
		return JobView{}, subErr
	}
	// exec returns only after the batch's snapshot is published, so the
	// latest snapshot is guaranteed to contain the new job — and the
	// forecast attached below is the memoized one for that version, shared
	// with every other response at the same state.
	v, ok := s.jobResponse(s.snap.Load(), id)
	if !ok {
		return JobView{}, errors.New("serve: submitted job missing from snapshot")
	}
	return v, nil
}

// Cancel withdraws a queued job through the scheduler mailbox — the
// programmatic form of DELETE /v1/jobs/{id}.
func (s *Server) Cancel(id int) error {
	if s.followerMode.Load() {
		return s.followerWriteError("cancel")
	}
	var cErr error
	if err := s.exec(func() { cErr = s.cancel(id) }); err != nil {
		return err
	}
	return cErr
}

// Lookup renders one job from the latest snapshot on the caller's
// goroutine — the lock-free read path behind GET /v1/jobs/{id}.
func (s *Server) Lookup(id int) (JobView, bool) {
	return s.jobResponse(s.snap.Load(), id)
}

// Queue renders the queue listing from the latest snapshot with the
// memoized forecast attached — the lock-free read path behind
// GET /v1/queue.
func (s *Server) Queue() QueueResponse {
	snap := s.snap.Load()
	return queueResponse(snap, s.forecastFor(snap))
}

// ReserveIDs raises the server's next-ID floor past upTo (staying in its
// ID congruence class) and journals the reservation, so recovery replays
// it and a restarted shard cannot re-issue an ID the reservation covered.
// Valid only before Run, like Preload.
func (s *Server) ReserveIDs(upTo int) error {
	if s.followerMode.Load() {
		return s.followerWriteError("reserve IDs")
	}
	if upTo < s.nextID {
		return nil
	}
	s.bumpNextID(upTo)
	s.note(wal.Record{Op: wal.OpFloor, ID: upTo})
	return s.commitWAL()
}
