package job

import (
	"math/bits"
	"slices"
)

// Table maps job IDs to values, the one per-job index of the session, the
// schedulers and the auditor. Job IDs are dense in every workload here —
// traces number their jobs in order and the daemon hands out the next ID —
// so the table starts in the direct layout: a slice in which job id's entry
// sits at id − base, found by a subtraction and a bounds check. The layout
// holds while the IDs it spans number at most twice its entries. A Set that
// would stretch the span past that converts the table, once and for good,
// to the hashed layout (an open-addressed probe table), whose cost does not
// depend on how the IDs are spread. Presize lays a batch's table out once
// for all its IDs; such a table does not convert while it holds only them.
//
// Like the probe table, the direct slice allocates only when it grows, so
// what a run allocates depends on its IDs and never on a hash seed. The
// zero Table is empty and ready to use; it is not safe for concurrent use.
type Table[V any] struct {
	// The direct layout: job id's value at vals[id − base], present when
	// bit id − base of used is set. A bit, not a flag beside each value,
	// keeps the layout at a value's size a job.
	vals []V
	used []uint64
	base int
	n    int // entries held in the direct layout
	// floor is the entry count the density rule assumes at least: the
	// batch size Presize was given, so a presized table keeps its layout.
	floor  int
	hashed *probeTable[V] // non-nil once the table has converted
}

// Get returns the value of job id, if it has one. A hashed table has no
// direct slice, so the first test sends it to the probe table.
func (t *Table[V]) Get(id int) (V, bool) {
	if i := uint(id - t.base); i < uint(len(t.vals)) {
		return t.vals[i], t.used[i/64]&(1<<(i%64)) != 0
	}
	if t.hashed != nil {
		return t.hashed.get(id)
	}
	var zero V
	return zero, false
}

// Set stores the value of job id.
func (t *Table[V]) Set(id int, v V) {
	i := uint(id - t.base)
	if i >= uint(len(t.vals)) {
		if t.hashed != nil || !t.cover(id) {
			t.setHashed(id, v)
			return
		}
		i = uint(id - t.base)
	}
	if w, b := &t.used[i/64], uint64(1)<<(i%64); *w&b == 0 {
		*w |= b
		t.n++
	}
	t.vals[i] = v
}

// cover stretches the direct layout over id, which lies outside it, and
// reports false instead when the span would then exceed twice the entries.
func (t *Table[V]) cover(id int) bool {
	if len(t.vals) == 0 {
		t.layout(id, 1)
		return true
	}
	lo, hi := min(t.base, id), max(t.base+len(t.vals)-1, id)
	// The span hi − lo + 1 is at most 2·entries exactly when hi − lo is
	// below it; unsigned, so IDs of any sign cannot overflow the test.
	if uint(hi)-uint(lo) >= 2*uint(max(t.n+1, t.floor)) {
		return false
	}
	span := hi - lo + 1
	if id < t.base {
		old := *t
		t.layout(lo, span)
		old.Each(t.Set)
		return true
	}
	t.vals = slices.Grow(t.vals, span-len(t.vals))[:span]
	if words := (span + 63) / 64; words > len(t.used) {
		t.used = slices.Grow(t.used, words-len(t.used))[:words]
	}
	return true
}

// layout empties the direct layout and spans it over span IDs from base.
func (t *Table[V]) layout(base, span int) {
	t.base, t.n = base, 0
	t.vals = make([]V, span)
	t.used = make([]uint64, (span+63)/64)
}

// setHashed stores the value of job id in the hashed layout, converting
// the table first when it is still direct.
func (t *Table[V]) setHashed(id int, v V) {
	if t.hashed == nil {
		h := &probeTable[V]{}
		h.reserve(t.n + 1)
		t.Each(h.set)
		t.hashed, t.vals, t.used, t.n = h, nil, nil, 0
	}
	t.hashed.set(id, v)
}

// Drop removes job id's entry, if any.
func (t *Table[V]) Drop(id int) {
	i := uint(id - t.base)
	if i >= uint(len(t.vals)) {
		if t.hashed != nil {
			t.hashed.drop(id)
		}
		return
	}
	if w, b := &t.used[i/64], uint64(1)<<(i%64); *w&b != 0 {
		*w &^= b
		t.n--
		var zero V
		t.vals[i] = zero
	}
}

// Len returns the number of entries held.
func (t *Table[V]) Len() int {
	if t.hashed != nil {
		return t.hashed.n
	}
	return t.n
}

// Hashed reports whether the table has left the direct layout.
func (t *Table[V]) Hashed() bool { return t.hashed != nil }

// Each calls fn for every entry: in ID order in the direct layout, in no
// particular order in the hashed one.
func (t *Table[V]) Each(fn func(id int, v V)) {
	if t.hashed != nil {
		t.hashed.each(fn)
		return
	}
	for w, word := range t.used {
		for ; word != 0; word &= word - 1 {
			i := 64*w + bits.TrailingZeros64(word)
			fn(t.base+i, t.vals[i])
		}
	}
}

// Presize lays the table out for a batch of jobs, keeping the entries it
// already holds: the direct layout over the batch's whole ID range when it
// spans at most twice the jobs, the hashed layout sized for them otherwise.
// Either way no later Set of a batch ID grows the table or converts it. An
// empty direct table whose arrays span the batch lays it out in them.
func (t *Table[V]) Presize(jobs []*Job) {
	if len(jobs) == 0 {
		return
	}
	lo, hi := jobs[0].ID, jobs[0].ID
	for _, j := range jobs[1:] {
		lo, hi = min(lo, j.ID), max(hi, j.ID)
	}
	old := *t
	*t = Table[V]{floor: len(jobs)}
	if d := uint(hi) - uint(lo); d < 2*uint(len(jobs)) {
		span := int(d) + 1
		if words := (span + 63) / 64; old.Len() == 0 && old.hashed == nil && cap(old.vals) >= span && cap(old.used) >= words {
			// An empty table's arrays are zero to their capacity: Drop
			// zeroes what it removes, and Clear all of it.
			t.base, t.vals, t.used = lo, old.vals[:span], old.used[:words]
			return
		}
		t.layout(lo, span)
	} else {
		t.hashed = &probeTable[V]{}
		t.hashed.reserve(len(jobs) + old.Len())
	}
	old.Each(t.Set)
}

// Clear empties the table and keeps the direct layout's arrays, zeroed to
// their capacity, for a later Presize to lay a batch out in.
func (t *Table[V]) Clear() {
	vals, used := t.vals[:cap(t.vals)], t.used[:cap(t.used)]
	clear(vals)
	clear(used)
	*t = Table[V]{vals: vals[:0], used: used[:0]}
}

// probeTable is the hashed layout. It is open-addressed (Fibonacci hash,
// linear probing, backward-shift deletion, at most half full): a probe is a
// multiply and usually one slot. Unlike a Go map, whose layout depends on a
// per-map random hash seed, it allocates only when it doubles, so what it
// allocates depends on nothing but the most entries it has held at once —
// two runs of one input allocate alike.
type probeTable[V any] struct {
	slots []probeSlot[V] // len is zero or a power of two
	shift uint           // 64 − log2(len(slots))
	n     int            // slots in use
}

// probeSlot is one slot of the probe table; used distinguishes an empty
// slot, since every int is a valid job ID.
type probeSlot[V any] struct {
	id   int
	v    V
	used bool
}

// home is id's preferred slot: the top bits of id times 2⁶⁴/φ.
func (t *probeTable[V]) home(id int) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the slot holding id, or the empty slot ending its probe
// chain. The table must have slots.
func (t *probeTable[V]) find(id int) int {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].used && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns the value of job id, if it has one.
func (t *probeTable[V]) get(id int) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	s := &t.slots[t.find(id)]
	return s.v, s.used
}

// set stores the value of job id.
func (t *probeTable[V]) set(id int, v V) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(max(2*len(t.slots), 8))
	}
	s := &t.slots[t.find(id)]
	if !s.used {
		s.id, s.used = id, true
		t.n++
	}
	s.v = v
}

// reserve sizes the slot array for n entries at once.
func (t *probeTable[V]) reserve(n int) {
	if size := max(8, 1<<bits.Len(uint(2*n-1))); size > len(t.slots) {
		t.resize(size)
	}
}

// resize moves every entry into a slot array of size slots, a power of two.
func (t *probeTable[V]) resize(size int) {
	old := t.slots
	t.slots = make([]probeSlot[V], size)
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
func (t *probeTable[V]) drop(id int) {
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
	t.slots[hole] = probeSlot[V]{}
	t.n--
}

// each calls fn for every entry, in no particular order.
func (t *probeTable[V]) each(fn func(id int, v V)) {
	for _, s := range t.slots {
		if s.used {
			fn(s.id, s.v)
		}
	}
}
