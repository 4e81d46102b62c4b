package wal

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// withChunk runs the rest of a test with history chunks of n bytes.
func withChunk(t testing.TB, n int) {
	old := histChunk
	histChunk = n
	t.Cleanup(func() { histChunk = old })
}

// framed returns recs as the journal frames them.
func framed(t testing.TB, recs []Record) []byte {
	var out []byte
	for _, r := range recs {
		var err error
		if out, err = EncodeRecord(out, r); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkChunks asserts that no frame spans two chunks.
func checkChunks(t testing.TB, h *History) {
	t.Helper()
	for i, c := range h.chunks {
		if len(c) > 0 && c[len(c)-1] != '\n' {
			t.Fatalf("chunk %d of %d ends mid-frame: %q", i, len(h.chunks), c)
		}
	}
}

// decodeAs decodes h and requires it to hold want.
func decodeAs(t testing.TB, h *History, want []Record) []Record {
	t.Helper()
	got, err := h.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("history decodes to %+v\nwant %+v", got, want)
	}
	if h.Len() != len(want) || h.Size() != len(framed(t, want)) {
		t.Fatalf("Len %d Size %d, want %d and %d", h.Len(), h.Size(), len(want), len(framed(t, want)))
	}
	return got
}

// TestHistoryAdvanceAcrossChunkSeam: an advance that replaces the last
// frame of a full chunk but no longer fits there moves to the next chunk,
// and the replaced bytes leave the first.
func TestHistoryAdvanceAcrossChunkSeam(t *testing.T) {
	sub := Record{Seq: 1, Op: OpSubmit, Job: &JobRec{ID: 1, Runtime: 10, Estimate: 10, Width: 1}}
	short := Record{Seq: 2, Op: OpAdvance, To: 5}
	long := Record{Seq: 3, Op: OpAdvance, To: 5_000_000}
	withChunk(t, len(framed(t, []Record{sub, short}))+2)
	var h History
	for _, r := range []Record{sub, short, long} {
		if err := h.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.chunks) != 2 || !bytes.Equal(h.chunks[0], framed(t, []Record{sub})) || !bytes.Equal(h.chunks[1], framed(t, []Record{long})) {
		t.Fatalf("chunks %q, want the submit, then the later advance", h.chunks)
	}
	decodeAs(t, &h, []Record{sub, long})
}

// TestHistoryGrowthCopiesNothing is the history's cost row: journaling
// 16 k records allocates their framed bytes plus one chunk, beyond the
// append scratch — a history held in one []byte would re-copy itself on
// every regrowth and allocate several times its final length.
func TestHistoryGrowthCopiesNothing(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir())
	defer l.Close()
	const n, batch = 16 << 10, 64
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Op: OpSubmit, Job: &JobRec{ID: i + 1, Arrival: int64(i), Runtime: 600, Estimate: 1200, Width: 1 + i%8}}
		if i%batch == batch-1 {
			recs[i] = Record{Op: OpAdvance, To: int64(i)}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i += batch {
		if err := l.Append(recs[i : i+batch]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	alloc := int(after.TotalAlloc - before.TotalAlloc)
	// The scratch grows by doubling to its final capacity; the chunk list
	// is a few hundred bytes.
	scratch := 2 * (cap(l.buf) + 8*cap(l.ends))
	budget := l.HistorySize() + histChunk + scratch + 4<<10
	if l.HistoryLen() != n || alloc > budget {
		t.Fatalf("%d records: history %d bytes, allocated %d bytes, budget %d", l.HistoryLen(), l.HistorySize(), alloc, budget)
	}
}

// FuzzHistory drives a History through random submits, cancels, advances,
// captures (a checkpoint's seal) and adoptions (a reopen from the
// checkpoint's lines), with chunks a few frames long. What it holds must
// decode to Coalesce over the same records — except that an advance right
// after a capture starts a frame of its own — and no later operation may
// change the bytes a capture returned.
func FuzzHistory(f *testing.F) {
	f.Add([]byte{40, 0, 2, 7, 2, 0, 3, 2, 2, 1, 2, 4, 2, 2})
	f.Add([]byte{0, 0, 2, 3, 2, 4, 2, 252, 0, 5, 2, 250})
	f.Add([]byte{200, 0, 0, 0, 0, 2, 252, 3, 3, 2, 4, 2, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		withChunk(t, 16+2*int(data[0]))
		var (
			h        History
			ref      []Record
			sealed   bool
			seq      uint64
			to, next int64
			captures [][][]byte
			wants    [][]byte
		)
		for _, b := range data[1:] {
			kind, arg := b%5, int64(b/5)
			var r Record
			switch kind {
			case 0:
				next++
				r = Record{Op: OpSubmit, Job: &JobRec{ID: int(next), Arrival: to, Runtime: 1 + arg*arg*arg, Estimate: 1 + arg, Width: 1 + int(arg%8)}}
			case 1:
				r = Record{Op: OpCancel, ID: int(arg) + 1}
			case 2:
				to += arg * arg * arg * arg
				r = Record{Op: OpAdvance, To: to}
			case 3:
				captures = append(captures, h.seal())
				wants = append(wants, framed(t, ref))
				sealed = true
				continue
			case 4:
				ops := decodeAs(t, &h, ref)
				h.adopt(bytes.Join(h.chunks, nil), ops)
				sealed = false
				continue
			}
			seq++
			r.Seq = seq
			if err := h.Append(r); err != nil {
				t.Fatal(err)
			}
			if sealed && r.Op == OpAdvance {
				ref = append(ref, r)
			} else {
				ref = Coalesce(ref, r)
			}
			sealed = false
			checkChunks(t, &h)
		}
		decodeAs(t, &h, ref)
		for i, c := range captures {
			if got := bytes.Join(c, nil); !bytes.Equal(got, wants[i]) {
				t.Fatalf("capture %d now reads\n%s\nwant\n%s", i, got, wants[i])
			}
		}
	})
}
