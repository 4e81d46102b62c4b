package sim

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"slices"
)

// reservist mirrors sched.Reservist: the optional scheduler capability of
// reporting the reservation it holds for a queued job. Probed structurally
// so sim keeps importing only job (the audit wrapper forwards it).
type reservist interface {
	Reservation(id int) (int64, bool)
}

// StateHash digests the session's externally meaningful state — the clock,
// every submitted job with its full lifecycle bookkeeping, the scheduler's
// queue order, and any reservations the scheduler holds — into one FNV-1a
// value. Two sessions with equal hashes are indistinguishable to every
// client-visible surface and, because the engine is deterministic, will
// evolve identically under identical future inputs.
//
// It is the equivalence oracle of the durability layer: a recovering daemon
// proves "replay landed exactly where the crashed process stood" by
// comparing hashes, and checkpoints embed the hash so a divergent replay
// fails loudly instead of resuming from silently wrong state. Incremental
// and batch execution of the same submission sequence pin the same hash
// (see TestStateHashIncrementalEqualsBatch). Only the session's owning
// goroutine may call it.
func (ss *Session) StateHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}

	i64(ss.now)
	u64(uint64(ss.submitted))
	u64(uint64(ss.cancelled))
	u64(uint64(ss.completed))

	sjs := make([]*sessionJob, 0, ss.jobs.Len())
	ss.jobs.Each(func(_ int, sj *sessionJob) { sjs = append(sjs, sj) })
	slices.SortFunc(sjs, func(a, b *sessionJob) int { return cmp.Compare(a.j.ID, b.j.ID) })
	for _, sj := range sjs {
		u64(uint64(sj.j.ID))
		i64(sj.j.Arrival)
		i64(sj.j.Runtime)
		i64(sj.j.Estimate)
		u64(uint64(sj.j.Width))
		u64(uint64(sj.j.User))
		b(sj.arrived)
		b(sj.cancelled)
		st := sj.st
		if st == nil {
			u64(0)
			continue
		}
		u64(1)
		i64(st.firstStart)
		i64(st.lastStart)
		i64(st.end)
		i64(st.consumed)
		u64(uint64(st.epoch))
		b(st.running)
		b(st.suspended)
		b(st.done)
	}

	// Queue order is scheduler state a client can observe (it decides what
	// backfills next), so it is part of the digest — as are the
	// reservations conservative-family schedulers hold.
	rsv, _ := ss.s.(reservist)
	for i, j := range ss.s.QueuedJobs() {
		u64(uint64(i))
		u64(uint64(j.ID))
		if rsv != nil {
			if t, ok := rsv.Reservation(j.ID); ok {
				i64(t)
			}
		}
	}
	return h.Sum64()
}
