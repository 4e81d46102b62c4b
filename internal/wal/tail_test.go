package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// drainTailer pulls everything currently available.
func drainTailer(t *testing.T, tl *Tailer) []Record {
	t.Helper()
	recs, err := tl.Next(0)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return recs
}

func TestLoadDoesNotTruncateLiveJournal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1), submitRec(2)}); err != nil {
		t.Fatal(err)
	}
	// Simulate an appender caught mid-frame: the first half of a valid
	// record at the tail of the active segment, exactly what a concurrent
	// reader can observe during a write(2).
	rec3 := submitRec(3)
	rec3.Seq = 3
	frame, err := EncodeRecord(nil, rec3)
	if err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentPath()
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame[:len(frame)/2])
	f.Close()
	before, _ := os.Stat(seg)

	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Tail) != 2 || st.NextSeq != 3 {
		t.Fatalf("read-only load saw %d records, NextSeq %d", len(st.Tail), st.NextSeq)
	}
	if st.TruncatedBytes == 0 {
		t.Fatal("read-only load did not report the torn bytes")
	}
	after, _ := os.Stat(seg)
	if after.Size() != before.Size() {
		t.Fatalf("Load mutated a live journal: segment %d bytes -> %d", before.Size(), after.Size())
	}
	// The appender finishes its write: the frame Load refused to truncate
	// completes, and the next read-only load sees the record whole.
	f, _ = os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(frame[len(frame)/2:])
	f.Close()
	st, err = Load(dir)
	if err != nil {
		t.Fatalf("Load after frame completion: %v", err)
	}
	if len(st.Tail) != 3 || st.Tail[2].Seq != 3 || st.TruncatedBytes != 0 {
		t.Fatalf("completed frame lost: %d records, truncated %d", len(st.Tail), st.TruncatedBytes)
	}
}

func TestLoadDoesNotTakeWriterLock(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1)}); err != nil {
		t.Fatal(err)
	}
	// The writer holds the flock; a read-only Load must not care.
	if _, err := Load(dir); err != nil {
		t.Fatalf("Load against a locked live journal: %v", err)
	}
	// And Load must not leave a lock behind that blocks a future writer.
	l.Close()
	if _, _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("reopen after Load: %v", err)
	}
}

func TestTailerFollowsAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	tl := NewTailer(dir, 0)

	if err := l.Append([]Record{submitRec(1), submitRec(2)}); err != nil {
		t.Fatal(err)
	}
	if got := drainTailer(t, tl); len(got) != 2 || got[1].Seq != 2 {
		t.Fatalf("first drain = %+v", got)
	}
	// Checkpoint rotates to a fresh segment; the tailer must cross the
	// boundary without losing or duplicating records.
	if err := l.Checkpoint(Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{submitRec(3), submitRec(4)}); err != nil {
		t.Fatal(err)
	}
	got := drainTailer(t, tl)
	if len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Fatalf("post-rotation drain = %+v", got)
	}
	if tl.Seq() != 4 {
		t.Fatalf("tailer seq = %d, want 4", tl.Seq())
	}
	// Caught up: polling again returns nothing, no error.
	if got := drainTailer(t, tl); len(got) != 0 {
		t.Fatalf("caught-up drain returned %d records", len(got))
	}
	// Records appended after a quiet poll still arrive.
	if err := l.Append([]Record{submitRec(5)}); err != nil {
		t.Fatal(err)
	}
	if got := drainTailer(t, tl); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("post-quiet drain = %+v", got)
	}
}

func TestTailerRestartMidSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	var recs []Record
	for i := 1; i <= 10; i++ {
		recs = append(recs, submitRec(i))
	}
	if err := l.Append(recs); err != nil {
		t.Fatal(err)
	}
	// A reader that died at seq 6 resumes exactly after it, even though 6
	// sits in the middle of a segment.
	tl := NewTailer(dir, 6)
	got := drainTailer(t, tl)
	if len(got) != 4 || got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("mid-segment restart drain = %+v", got)
	}
	// Restarting past the end is simply caught up.
	if got := drainTailer(t, NewTailer(dir, 10)); len(got) != 0 {
		t.Fatalf("at-end restart returned %d records", len(got))
	}
}

func TestTailerBatchLimit(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	var recs []Record
	for i := 1; i <= 7; i++ {
		recs = append(recs, submitRec(i))
	}
	if err := l.Append(recs); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dir, 0)
	for _, want := range []int{3, 3, 1, 0} {
		got, err := tl.Next(3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("Next(3) returned %d records, want %d", len(got), want)
		}
	}
	if tl.Seq() != 7 {
		t.Fatalf("tailer seq = %d, want 7", tl.Seq())
	}
}

func TestTailerStopsAtTornTailThenResumes(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1)}); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentPath()
	l.Close()
	f, _ := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`deadbeef {"s":2,"op":"sub`)
	f.Close()

	tl := NewTailer(dir, 0)
	if got := drainTailer(t, tl); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("torn-tail drain = %+v", got)
	}
	// A recovering writer truncates the torn frame and appends fresh
	// records; the stopped tailer continues seamlessly.
	l2, _ := mustOpen(t, dir)
	if err := l2.Append([]Record{submitRec(2), submitRec(3)}); err != nil {
		t.Fatal(err)
	}
	got := drainTailer(t, tl)
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("post-truncate drain = %+v", got)
	}
}

func TestTailerGoneAfterPrune(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1), submitRec(2)}); err != nil {
		t.Fatal(err)
	}
	// The checkpoint prunes the only segment holding seqs 1-2; a reader
	// still positioned at 0 cannot continue incrementally.
	if err := l.Checkpoint(Meta{}); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dir, 0)
	if _, err := tl.Next(0); !errors.Is(err, ErrGone) {
		t.Fatalf("pruned tail: err = %v, want ErrGone", err)
	}
}

func TestRetainFloorKeepsSegmentsForLaggingFollower(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1), submitRec(2)}); err != nil {
		t.Fatal(err)
	}
	// A registered follower has only acknowledged seq 0; the retention
	// floor must keep the segment alive through the checkpoint.
	l.SetRetainFloor(0)
	if err := l.Checkpoint(Meta{}); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(dir, 0)
	got := drainTailer(t, tl)
	if len(got) != 2 || got[0].Seq != 1 {
		t.Fatalf("retained drain = %+v", got)
	}
	if s := l.segs[0]; s.first != 1 || s.last < s.first {
		t.Fatalf("oldest segment holds seqs %d..%d, want it to start at 1", s.first, s.last)
	}
	// The follower catches up and acks; the next checkpoint may prune.
	l.SetRetainFloor(l.Seq())
	if err := l.Append([]Record{submitRec(3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTailer(dir, 0).Next(0); !errors.Is(err, ErrGone) {
		t.Fatalf("caught-up floor: err = %v, want ErrGone after prune", err)
	}
}

func TestTailerConcurrentWithAppender(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	const total = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= total; i++ {
			if err := l.Append([]Record{submitRec(i)}); err != nil {
				t.Error(err)
				return
			}
			if i%97 == 0 {
				// Rotations mid-stream: the floor keeps everything readable.
				l.SetRetainFloor(0)
				if err := l.Checkpoint(Meta{}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	tl := NewTailer(dir, 0)
	var got []Record
	for len(got) < total {
		recs, err := tl.Next(16)
		if err != nil {
			t.Fatalf("concurrent tail: %v (at %d records)", err, len(got))
		}
		got = append(got, recs...)
	}
	wg.Wait()
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestFloorAndTermRecordsSurviveReload(t *testing.T) {
	// Regression: OpFloor was journaled (federated preload fencing) but
	// missing from the decode switch, so any journal holding one failed to
	// reload. OpTerm rides the same check.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	recs := []Record{submitRec(1), {Op: OpFloor, ID: 500}, {Op: OpTerm, Term: 3}}
	if err := l.Append(recs); err != nil {
		t.Fatal(err)
	}
	l.Close()
	st, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Tail) != 3 {
		t.Fatalf("reloaded %d records, want 3", len(st.Tail))
	}
	if st.Tail[1].Op != OpFloor || st.Tail[1].ID != 500 {
		t.Fatalf("floor record corrupted: %+v", st.Tail[1])
	}
	if st.Tail[2].Op != OpTerm || st.Tail[2].Term != 3 {
		t.Fatalf("term record corrupted: %+v", st.Tail[2])
	}
}

func TestRecordFrameRoundTrip(t *testing.T) {
	r := Record{Seq: 42, Op: OpTerm, Term: 7}
	line, err := EncodeRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRecord(line[:len(line)-1]) // strip newline
	if err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Fatalf("round trip: %+v != %+v", back, r)
	}
	m := Meta{Format: FormatVersion, Seq: 9, SimNow: 123, NextID: 4, StateHash: 99}
	mline, err := EncodeMeta(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	mback, err := DecodeMeta(mline[:len(mline)-1])
	if err != nil {
		t.Fatal(err)
	}
	if mback != m {
		t.Fatalf("meta round trip: %+v != %+v", mback, m)
	}
}

// paddedFrame is a valid advance frame whose JSON payload carries pad
// spaces — a frame of any length the test needs.
func paddedFrame(seq uint64, pad int) []byte {
	payload := fmt.Sprintf(`{"s":%d,"op":"advance","to":%d%s}`, seq, seq, bytes.Repeat([]byte(" "), pad))
	return appendFramed(nil, []byte(payload))
}

// writeSegment writes frames as the journal's first segment.
func writeSegment(t *testing.T, dir string, frames ...[]byte) string {
	t.Helper()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, bytes.Join(frames, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// smallFrames is n unpadded frames starting at seq first.
func smallFrames(first uint64, n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, paddedFrame(first+uint64(i), 0)...)
	}
	return out
}

// damagedFrames is over a chunk's worth of frames from seq first on, each
// with a payload byte flipped under its CRC.
func damagedFrames(first uint64) []byte {
	var out []byte
	for seq := first; len(out) <= scanChunk+scanChunk/4; seq++ {
		frame := paddedFrame(seq, 0)
		frame[len(frame)-3] ^= 0x01
		out = append(out, frame...)
	}
	return out
}

func TestTailerChunkEdges(t *testing.T) {
	one := len(paddedFrame(1, 0))
	cases := []struct {
		name string
		// build lays out the journal in dir and returns a positioned Tailer.
		build   func(t *testing.T, dir string) *Tailer
		want    uint64 // Seq after Next(0)
		wantErr error
		// then, when set, changes the journal after the first Next; a second
		// Next(0) must reach wantThen.
		then     func(t *testing.T, dir string)
		wantThen uint64
	}{
		{
			name: "frame straddles the read buffer",
			build: func(t *testing.T, dir string) *Tailer {
				// The second frame starts 20 bytes short of the chunk edge.
				writeSegment(t, dir, paddedFrame(1, scanChunk-20-one), paddedFrame(2, 0), paddedFrame(3, 0))
				return NewTailer(dir, 0)
			},
			want: 3,
		},
		{
			name: "frame longer than the buffer",
			build: func(t *testing.T, dir string) *Tailer {
				writeSegment(t, dir, paddedFrame(1, 0), paddedFrame(2, 3*scanChunk), paddedFrame(3, 0))
				return NewTailer(dir, 0)
			},
			want: 3,
		},
		{
			name: "torn tail ends exactly on a chunk boundary",
			build: func(t *testing.T, dir string) *Tailer {
				// Two whole frames and the first bytes of a third fill one
				// chunk to the byte: the read comes back full, with no EOF.
				torn := paddedFrame(3, 0)[:one/2]
				writeSegment(t, dir, paddedFrame(1, scanChunk-2*one-len(torn)), paddedFrame(2, 0), torn)
				return NewTailer(dir, 0)
			},
			want: 2,
			then: func(t *testing.T, dir string) {
				f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				f.Write(paddedFrame(3, 0)[one/2:]) // the appender finishes its frame
			},
			wantThen: 3,
		},
		{
			name: "corruption with the next valid record in a later chunk",
			build: func(t *testing.T, dir string) *Tailer {
				// Over a chunk of damaged frames after seq 1, then seq 2
				// intact: damage with valid data after it is never "torn".
				writeSegment(t, dir, paddedFrame(1, 0), damagedFrames(2), paddedFrame(2, 0))
				return NewTailer(dir, 0)
			},
			want:    1,
			wantErr: ErrCorrupt,
		},
		{
			name: "the same damage with nothing valid after it is a torn tail",
			build: func(t *testing.T, dir string) *Tailer {
				writeSegment(t, dir, paddedFrame(1, 0), damagedFrames(2))
				return NewTailer(dir, 0)
			},
			want: 1,
		},
		{
			name: "segment shrinks below the read offset",
			build: func(t *testing.T, dir string) *Tailer {
				path := writeSegment(t, dir, smallFrames(1, 10))
				tl := NewTailer(dir, 0)
				drainTailer(t, tl)
				if err := os.Truncate(path, int64(5*one)); err != nil {
					t.Fatal(err)
				}
				return tl
			},
			want:    10,
			wantErr: ErrCorrupt,
		},
		{
			name: "segment pruned while held, successor covers the position",
			build: func(t *testing.T, dir string) *Tailer {
				path := writeSegment(t, dir, smallFrames(1, 2))
				tl := NewTailer(dir, 0)
				drainTailer(t, tl)
				os.Remove(path)
				os.WriteFile(filepath.Join(dir, segName(3)), smallFrames(3, 2), 0o644)
				return tl
			},
			want: 4,
		},
		{
			name: "segment pruned while held, position gone with it",
			build: func(t *testing.T, dir string) *Tailer {
				path := writeSegment(t, dir, smallFrames(1, 2))
				tl := NewTailer(dir, 0)
				if _, err := tl.Next(1); err != nil {
					t.Fatal(err)
				}
				os.Remove(path)
				os.WriteFile(filepath.Join(dir, segName(3)), smallFrames(3, 2), 0o644)
				return tl
			},
			want:    1,
			wantErr: ErrGone,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tl := tc.build(t, dir)
			_, err := tl.Next(0)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Next: err = %v, want %v", err, tc.wantErr)
			}
			if tl.Seq() != tc.want {
				t.Fatalf("Next stopped at seq %d, want %d", tl.Seq(), tc.want)
			}
			if tc.then == nil {
				return
			}
			tc.then(t, dir)
			if got := drainTailer(t, tl); tl.Seq() != tc.wantThen {
				t.Fatalf("second Next stopped at seq %d (%d records), want %d", tl.Seq(), len(got), tc.wantThen)
			}
		})
	}
}

// deepJournal appends n records to a fresh journal in dir, alternating
// advances and submits as a live leader's journal does.
func deepJournal(tb testing.TB, dir string, n int) {
	tb.Helper()
	l, _, err := Open(dir, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	batch := make([]Record, 0, 1000)
	for i := 1; i <= n; i++ {
		if i%2 == 1 {
			batch = append(batch, Record{Op: OpAdvance, To: int64(i)})
		} else {
			batch = append(batch, submitRec(i))
		}
		if len(batch) == cap(batch) || i == n {
			if err := l.Append(batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
}

// TestTailerPullCostIsBytesReturned pins the shipping layer's invariant: a
// pull costs O(bytes returned), wherever in the segment it stands. The
// last 64-record pull of a 40 000-record catch-up reads at most one chunk
// beyond the frames it returns and allocates no more than its records.
func TestTailerPullCostIsBytesReturned(t *testing.T) {
	const depth, batch = 40000, 64
	dir := t.TempDir()
	deepJournal(t, dir, depth)
	tl := NewTailer(dir, 0)
	for tl.Seq() < depth-batch {
		if recs, err := tl.Next(batch); err != nil || len(recs) != batch {
			t.Fatalf("catch-up pull at seq %d: %d records, %v", tl.Seq(), len(recs), err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	perRec := fi.Size() / depth

	var before, after runtime.MemStats
	read := tl.BytesRead()
	runtime.ReadMemStats(&before)
	recs, err := tl.Next(batch)
	runtime.ReadMemStats(&after)
	if err != nil || len(recs) != batch || tl.Seq() != depth {
		t.Fatalf("last pull: %d records to seq %d, %v", len(recs), tl.Seq(), err)
	}
	if got, limit := tl.BytesRead()-read, int64(scanChunk)+2*batch*perRec; got > limit {
		t.Errorf("last pull read %d bytes of a %d-byte segment, want at most %d", got, fi.Size(), limit)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("last pull allocated %d bytes, want < 64 KiB", got)
	}
	if total := tl.BytesRead(); total > fi.Size()+depth/batch*int64(scanChunk) {
		t.Errorf("catch-up read %d bytes of a %d-byte segment", total, fi.Size())
	}
}

// TestNotifyCarriesAppendedPosition: Notify runs between a batch's write
// and its fsync with the batch's last seq, while Seq still reports the
// last synced one — the gap /v1/wal must treat as valid, not diverged.
func TestNotifyCarriesAppendedPosition(t *testing.T) {
	var l *Log
	var appended, durable uint64
	l, _, err := Open(t.TempDir(), Options{Fsync: true, Notify: func(seq uint64) { appended, durable = seq, l.Seq() }})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]Record{submitRec(1), submitRec(2)}); err != nil {
		t.Fatal(err)
	}
	if appended != 2 || durable != 0 || l.Seq() != 2 {
		t.Fatalf("Notify saw appended %d with Seq %d (now %d), want 2, 0, 2", appended, durable, l.Seq())
	}
}

// TestLoadAgainstCheckpointingWriter: a checkpoint that lands while a
// read-only Load is between its directory listings prunes files the Load
// has already chosen. That is a stale view, to be taken again — never
// ErrCorrupt, which tells a follower its leader's journal is damaged.
func TestLoadAgainstCheckpointingWriter(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 150; i++ {
			if err := l.Append([]Record{submitRec(i)}); err != nil {
				t.Error(err)
				return
			}
			if err := l.Checkpoint(Meta{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// More readers than processors, so that some are descheduled mid-Load.
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := Load(dir); errors.Is(err, ErrCorrupt) {
					t.Errorf("Load racing a checkpoint: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
