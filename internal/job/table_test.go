package job

import (
	"math/bits"
	"testing"
)

// tablePaths records which of the table's paths a program took.
type tablePaths struct {
	direct, hashed, converted, rebased, wrapped, presized bool
}

// runTableProgram replays a program of sets, drops, gets and presizes
// against a Table and a Go map, and after every operation checks Get, Len
// and Each against the map. Each operation is two bytes, the operation and
// its argument. An ID comes from one of four classes: dense IDs from 1000
// up; IDs below 1000, which rebase a direct table below its minimum; IDs
// above 2³², which stretch the span past the density rule and convert the
// table; and, once hashed, IDs whose home is the probe table's last slot,
// so probe runs, and the backward shifts that close them after a drop, wrap
// the array's end. A presize is a batch of up to 64 jobs, dense or a
// million IDs apart.
func runTableProgram(t *testing.T, prog []byte) tablePaths {
	var tab Table[int64]
	var seen tablePaths
	want := map[int]int64{}
	wrapIDs := map[int][]int{}
	idOf := func(b byte) int {
		n := int(b & 0x3f)
		switch b >> 6 {
		case 1:
			return 999 - n*n
		case 2:
			return 1<<32 + n*1_000_003
		case 3:
			if tab.hashed == nil {
				return 1000 + 2*n
			}
			size := len(tab.hashed.slots)
			if wrapIDs[size] == nil {
				probe := probeTable[int64]{shift: uint(64 - bits.TrailingZeros(uint(size)))}
				for id := 0; len(wrapIDs[size]) < 8; id++ {
					if probe.home(id) == size-1 {
						wrapIDs[size] = append(wrapIDs[size], id)
					}
				}
			}
			return wrapIDs[size][n%8]
		}
		return 1000 + n
	}
	for step := 0; len(prog) >= 2; step, prog = step+1, prog[2:] {
		op, arg := prog[0]%5, prog[1]
		id := idOf(arg)
		wasHashed, base, span := tab.hashed != nil, tab.base, len(tab.vals)
		switch op {
		case 0, 1:
			v := int64(step)*7 - int64(prog[0])
			tab.Set(id, v)
			want[id] = v
		case 2:
			tab.Drop(id)
			delete(want, id)
		case 4:
			batch := make([]*Job, int(arg&0x3f)+1)
			for i := range batch {
				gap := 1
				if arg&0x40 != 0 {
					gap = 1 << 20
				}
				batch[i] = &Job{ID: 1000 + i*gap}
			}
			tab.Presize(batch)
			seen.presized = true
		}
		if tab.hashed == nil {
			seen.direct = true
			seen.rebased = seen.rebased || op < 2 && span > 0 && tab.base < base
		} else {
			seen.hashed = true
			seen.converted = seen.converted || op < 2 && !wasHashed
			for i, s := range tab.hashed.slots {
				seen.wrapped = seen.wrapped || s.used && i < tab.hashed.home(s.id)
			}
		}
		w, present := want[id]
		if got, ok := tab.Get(id); got != w || ok != present {
			t.Fatalf("step %d: Get(%d) = %d, %v; want %d, %v", step, id, got, ok, w, present)
		}
		if tab.Len() != len(want) {
			t.Fatalf("step %d: Len = %d, want %d", step, tab.Len(), len(want))
		}
		each := map[int]int64{}
		tab.Each(func(id int, v int64) { each[id] = v })
		if len(each) != len(want) {
			t.Fatalf("step %d: Each visited %d entries, want %d", step, len(each), len(want))
		}
		for id, w := range want {
			if got, ok := tab.Get(id); !ok || got != w || each[id] != w {
				t.Fatalf("step %d: Get(%d) = %d, %v and Each saw %d; want %d", step, id, got, ok, each[id], w)
			}
		}
	}
	return seen
}

// tableSeeds are FuzzTable's seed programs; between them they take every
// path TestTableSeedsTakeEveryPath names.
func tableSeeds() [][]byte {
	seeds := [][]byte{
		{0, 1, 0, 2, 0, 3, 2, 2, 3, 3, 0, 2, 2, 1},                               // direct only
		{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 0x40, 1, 0x41, 2, 0x40, 3, 0x41}, // rebases below the minimum
		{0, 1, 0, 2, 0, 0x81, 0, 0xc0, 0, 0xc1, 0, 0xc2, 2, 0xc0, 3, 0xc2},       // converts, then wraps
		{4, 0x3f, 0, 0, 0, 0x3f, 0, 0x81, 4, 0x7f, 0, 0x82, 2, 0},                // presized: dense, then sparse
	}
	var grow []byte
	for i := range 64 {
		grow = append(grow, 0, byte(i), 1, byte(0xc0|i&7))
	}
	for i := range 64 {
		grow = append(grow, 2, byte(i*5)&0x3f)
	}
	return append(seeds, grow)
}

// FuzzTable checks the table against a Go map over programs of sets,
// drops, gets and presizes (runTableProgram).
func FuzzTable(f *testing.F) {
	for _, s := range tableSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runTableProgram(t, prog) })
}

// TestTableSeedsTakeEveryPath: the seed programs cover both layouts, the
// conversion from one to the other, a rebase below the minimum ID, a probe
// chain that wraps the hashed array's end, and Presize — so the fuzz
// target checks each of them even with no fuzzing time.
func TestTableSeedsTakeEveryPath(t *testing.T) {
	var all tablePaths
	for _, s := range tableSeeds() {
		p := runTableProgram(t, s)
		all.direct = all.direct || p.direct
		all.hashed = all.hashed || p.hashed
		all.converted = all.converted || p.converted
		all.rebased = all.rebased || p.rebased
		all.wrapped = all.wrapped || p.wrapped
		all.presized = all.presized || p.presized
	}
	if all != (tablePaths{true, true, true, true, true, true}) {
		t.Fatalf("the seeds took %+v, want every path", all)
	}
}

// TestTableKeepsDenseIDsDirect: a table fed dense IDs in order — a trace,
// or the daemon's — never leaves the direct layout, even as entries come
// and go; a presized table keeps its layout for the batch's IDs however
// few of them it holds; and one whose IDs spread past twice its entries
// converts.
func TestTableKeepsDenseIDsDirect(t *testing.T) {
	var dense Table[int]
	for id := 1; id <= 10000; id++ {
		dense.Set(id, id)
	}
	if dense.Hashed() || dense.Len() != 10000 {
		t.Fatalf("dense IDs: hashed %v, %d entries", dense.Hashed(), dense.Len())
	}
	var batch []*Job
	for id := 1; id <= 1000; id++ {
		batch = append(batch, &Job{ID: 3 * id / 2})
	}
	var presized Table[int]
	presized.Presize(batch)
	presized.Set(1500, 1)
	presized.Set(1, 1)
	presized.Drop(1500)
	presized.Set(1000, 1)
	if presized.Hashed() {
		t.Fatal("a presized table converted for its batch's own IDs")
	}
	var sparse Table[int]
	for id := 1; id <= 100; id++ {
		sparse.Set(5*id, id)
	}
	if !sparse.Hashed() {
		t.Fatal("IDs five apart kept the direct layout")
	}
}
