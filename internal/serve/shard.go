package serve

// The programmatic forms of the job endpoints, shared by the HTTP handlers
// and the federation front end (internal/fed), which holds one Server per
// shard. Each is either a lock-free snapshot read (Lookup, Queue) or a
// write batch under the server's lock (Submit, Cancel), so a front end
// inherits the serving layer's guarantees shard by shard: a gather never
// blocks a shard's writes, and a submit is acknowledged only after it is
// durable (when journaling) and visible in the shard's published snapshot.

import (
	"errors"

	"repro/internal/wal"
)

// Submit runs one submission through exec, which runs its batch inline or
// hands it to the loop through the mailbox, and returns the accepted job
// rendered from a snapshot at or after its batch's, which still contains
// it — the programmatic form of POST /v1/jobs, shared by the HTTP handler
// and the federation front end.
func (s *Server) Submit(req SubmitRequest) (JobView, error) {
	if s.followerMode.Load() {
		return JobView{}, s.followerWriteError("submit")
	}
	id, err := s.exec(command{req: req})
	if err != nil {
		return JobView{}, err
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

// Cancel withdraws a queued job through exec, inline or through the
// mailbox — the programmatic form of DELETE /v1/jobs/{id}.
func (s *Server) Cancel(id int) error {
	if s.followerMode.Load() {
		return s.followerWriteError("cancel")
	}
	_, err := s.exec(command{cancel: true, id: id})
	return err
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
	return queueResponse(snap, s.pol, s.forecastFor(snap))
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
