package sched

import "math/bits"

// idTable maps job IDs to values. It is open-addressed (Fibonacci hash,
// linear probing, backward-shift deletion, at most half full): a probe is a
// multiply and usually one slot. Unlike a Go map, whose layout depends on a
// per-map random hash seed, it allocates only when it doubles, so what it
// allocates depends on nothing but the most entries it has held at once —
// two runs of one input allocate alike. The engines keep every job-keyed
// table in one.
type idTable[V any] struct {
	slots []idSlot[V] // len is zero or a power of two
	shift uint        // 64 − log2(len(slots))
	n     int         // slots in use
}

// idSlot is one slot of the table; used distinguishes an empty slot, since
// every int is a valid job ID.
type idSlot[V any] struct {
	id   int
	v    V
	used bool
}

// home is id's preferred slot: the top bits of id times 2⁶⁴/φ.
func (t *idTable[V]) home(id int) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the slot holding id, or the empty slot ending its probe
// chain. The table must have slots.
func (t *idTable[V]) find(id int) int {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].used && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns the value of job id, if it has one.
func (t *idTable[V]) get(id int) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	s := &t.slots[t.find(id)]
	return s.v, s.used
}

// set stores the value of job id.
func (t *idTable[V]) set(id int, v V) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	s := &t.slots[t.find(id)]
	if !s.used {
		s.id, s.used = id, true
		t.n++
	}
	s.v = v
}

// grow doubles the slot array, to 8 slots at first, and re-inserts.
func (t *idTable[V]) grow() {
	old := t.slots
	size := max(2*len(old), 8)
	t.slots = make([]idSlot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.used {
			t.slots[t.find(s.id)] = s
		}
	}
}

// drop removes job id's entry, if any. Each later entry of the probe run
// whose chain passes the hole moves into it, so no tombstone is left for
// later probes to cross.
func (t *idTable[V]) drop(id int) {
	if t.n == 0 {
		return
	}
	hole := t.find(id)
	if !t.slots[hole].used {
		return
	}
	mask := len(t.slots) - 1
	for i := (hole + 1) & mask; t.slots[i].used; i = (i + 1) & mask {
		if (i-t.home(t.slots[i].id))&mask >= (i-hole)&mask {
			t.slots[hole] = t.slots[i]
			hole = i
		}
	}
	t.slots[hole] = idSlot[V]{}
	t.n--
}

// len returns the number of entries held.
func (t *idTable[V]) len() int { return t.n }

// each calls fn for every entry, in no particular order.
func (t *idTable[V]) each(fn func(id int, v V)) {
	for _, s := range t.slots {
		if s.used {
			fn(s.id, s.v)
		}
	}
}

// resvTable is the reservation bookkeeping of the reservation engine:
// queued job ID -> reserved start. Every write goes through set, which also
// records the ID in a write log once somebody has asked for one — so an
// observer that must re-check a reservation whenever it changes
// (internal/audit) reads the IDs that moved instead of probing every queued
// job after every event. Only the shells that publish per-job guarantees
// (Conservative, SlackBased) export the way to ask. The engine writes the
// table through set and drop only, so a write cannot miss the log.
type resvTable struct {
	idTable[int64]
	// log holds the IDs set since the last drain, in write order and with
	// repeats. It stays empty until track switches logging on: a scheduler
	// nobody audits must not accumulate an entry per reservation forever.
	log     []int
	logging bool
}

// set grants or moves the reservation of job id. Drops are not logged: a
// job without a reservation has nothing to check.
func (r *resvTable) set(id int, start int64) {
	r.idTable.set(id, start)
	if r.logging {
		r.log = append(r.log, id)
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
