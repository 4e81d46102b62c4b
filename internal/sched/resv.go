package sched

import "math/bits"

// resvTable is the reservation bookkeeping of the reservation engine:
// queued job ID -> reserved start. Every write goes through set, which also
// records the ID in a write log once somebody has asked for one — so an
// observer that must re-check a reservation whenever it changes
// (internal/audit) reads the IDs that moved instead of probing every queued
// job after every event. Only the shells that publish per-job guarantees
// (Conservative, SlackBased) export the way to ask. The engine writes the
// table through set and drop only, so a write cannot miss the log.
//
// It is open-addressed (Fibonacci hash, linear probing, backward-shift
// deletion, at most half full): a pass reads it once per queued job, and a
// probe here is a multiply and usually one slot.
type resvTable struct {
	slots []resvSlot // len is zero or a power of two
	shift uint       // 64 − log2(len(slots))
	n     int        // slots in use
	// log holds the IDs set since the last drain, in write order and with
	// repeats. It stays empty until track switches logging on: a scheduler
	// nobody audits must not accumulate an entry per reservation forever.
	log     []int
	logging bool
}

// resvSlot is one slot of the table; used distinguishes an empty slot,
// since every int is a valid job ID.
type resvSlot struct {
	id    int
	start int64
	used  bool
}

// home is id's preferred slot: the top bits of id times 2⁶⁴/φ.
func (r *resvTable) home(id int) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> r.shift)
}

// find returns the slot holding id, or the empty slot ending its probe
// chain. The table must have slots.
func (r *resvTable) find(id int) int {
	mask := len(r.slots) - 1
	i := r.home(id)
	for r.slots[i].used && r.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns the reserved start of job id, if it holds one.
func (r *resvTable) get(id int) (int64, bool) {
	if r.n == 0 {
		return 0, false
	}
	s := &r.slots[r.find(id)]
	return s.start, s.used
}

// set grants or moves the reservation of job id.
func (r *resvTable) set(id int, start int64) {
	if 2*(r.n+1) > len(r.slots) {
		r.grow()
	}
	s := &r.slots[r.find(id)]
	if !s.used {
		*s = resvSlot{id: id, used: true}
		r.n++
	}
	s.start = start
	if r.logging {
		r.log = append(r.log, id)
	}
}

// grow doubles the slot array, to 8 slots at first, and re-inserts.
func (r *resvTable) grow() {
	old := r.slots
	size := max(2*len(old), 8)
	r.slots = make([]resvSlot, size)
	r.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.used {
			r.slots[r.find(s.id)] = s
		}
	}
}

// drop removes the reservation of job id (it started or was withdrawn).
// Drops are not logged: a job without a reservation has nothing to check.
// Each later entry of the probe run whose chain passes the hole moves into
// it, so no tombstone is left for later probes to cross.
func (r *resvTable) drop(id int) {
	if r.n == 0 {
		return
	}
	hole := r.find(id)
	if !r.slots[hole].used {
		return
	}
	mask := len(r.slots) - 1
	for i := (hole + 1) & mask; r.slots[i].used; i = (i + 1) & mask {
		if (i-r.home(r.slots[i].id))&mask >= (i-hole)&mask {
			r.slots[hole] = r.slots[i]
			hole = i
		}
	}
	r.slots[hole] = resvSlot{}
	r.n--
}

// len returns the number of reservations held.
func (r *resvTable) len() int { return r.n }

// each calls fn for every reservation, in no particular order.
func (r *resvTable) each(fn func(id int, start int64)) {
	for _, s := range r.slots {
		if s.used {
			fn(s.id, s.start)
		}
	}
}

// track switches the write log on and returns its drain: each call yields
// the IDs written since the previous call, in a slice that is valid until
// the next write.
func (r *resvTable) track() (drain func() []int) {
	r.logging = true
	return func() []int {
		ids := r.log
		r.log = r.log[:0]
		return ids
	}
}
