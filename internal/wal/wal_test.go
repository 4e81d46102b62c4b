package wal

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string) (*Log, *State) {
	t.Helper()
	l, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, st
}

func submitRec(id int) Record {
	return Record{Op: OpSubmit, Job: &JobRec{ID: id, Arrival: int64(id) * 10, Runtime: 60, Estimate: 120, Width: 4, User: 7}}
}

func TestEmptyJournal(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir)
	if st.Checkpoint != nil || len(st.Tail) != 0 || st.NextSeq != 1 {
		t.Fatalf("fresh dir recovered %+v", st)
	}
	if l.Seq() != 0 {
		t.Fatalf("fresh log Seq = %d", l.Seq())
	}
	// A dir that does not exist yet behaves the same through Load.
	st2, err := Load(filepath.Join(dir, "nonexistent"))
	if err != nil || st2.NextSeq != 1 {
		t.Fatalf("Load(missing) = %+v, %v", st2, err)
	}
}

func TestAppendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	batch1 := []Record{submitRec(1), {Op: OpAdvance, To: 10}}
	batch2 := []Record{submitRec(2), {Op: OpCancel, ID: 1}, {Op: OpAdvance, To: 25}}
	if err := l.Append(batch1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(batch2); err != nil {
		t.Fatal(err)
	}
	if l.Seq() != 5 {
		t.Fatalf("Seq = %d, want 5", l.Seq())
	}
	l.Close()

	_, st := mustOpen(t, dir)
	if st.Checkpoint != nil {
		t.Fatal("no checkpoint was written")
	}
	want := append(append([]Record{}, batch1...), batch2...)
	if !reflect.DeepEqual(st.Tail, want) {
		t.Fatalf("recovered tail %+v\nwant %+v", st.Tail, want)
	}
	if st.NextSeq != 6 {
		t.Fatalf("NextSeq = %d, want 6", st.NextSeq)
	}
}

func TestTornTailPartialLine(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1), submitRec(2)}); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentPath()
	l.Close()
	// Simulate a crash mid-append: half a record, no newline.
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"s":3,"op":"sub`)
	f.Close()

	l2, st := mustOpen(t, dir)
	if len(st.Tail) != 2 || st.TruncatedBytes == 0 {
		t.Fatalf("torn tail: recovered %d records, truncated %d bytes", len(st.Tail), st.TruncatedBytes)
	}
	// The journal must be appendable again at seq 3.
	if err := l2.Append([]Record{submitRec(3)}); err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != 3 {
		t.Fatalf("Seq after torn recovery = %d, want 3", l2.Seq())
	}
}

func TestTornTailBadCRC(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1), submitRec(2), submitRec(3)}); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentPath()
	l.Close()
	// Flip a byte inside the LAST record's payload: torn write, truncate.
	data, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	corrupted := strings.Join(lines[:len(lines)-1], "") + flipPayloadByte(last) + "\n"
	os.WriteFile(seg, []byte(corrupted), 0o644)

	_, st := mustOpen(t, dir)
	if len(st.Tail) != 2 {
		t.Fatalf("bad-CRC tail: recovered %d records, want 2", len(st.Tail))
	}
}

func TestCorruptMidFileFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1), submitRec(2), submitRec(3)}); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentPath()
	l.Close()
	// Flip a byte in the SECOND record: valid data follows, so this is
	// corruption, not a torn tail — recovery must refuse, never half-apply.
	data, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	lines[1] = flipPayloadByte(strings.TrimSuffix(lines[1], "\n")) + "\n"
	os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644)

	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	var history []Record
	for i := 1; i <= 4; i++ {
		recs := []Record{submitRec(i), {Op: OpAdvance, To: int64(i) * 10}}
		if err := l.Append(recs); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			history = Coalesce(history, r)
		}
	}
	meta := Meta{SimNow: 40, NextID: 5, StateHash: 0xfeedface12345678, Submitted: 4,
		Config: Config{Procs: 64, Scheduler: "easy", Policy: "FCFS", Audit: true}}
	if err := l.Checkpoint(meta); err != nil {
		t.Fatal(err)
	}
	if l.CheckpointSeq() != 8 {
		t.Fatalf("CheckpointSeq = %d, want 8", l.CheckpointSeq())
	}
	tail := []Record{submitRec(5), {Op: OpAdvance, To: 50}}
	if err := l.Append(tail); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, st := mustOpen(t, dir)
	if st.Checkpoint == nil {
		t.Fatalf("no checkpoint recovered (warnings: %v)", st.Warnings)
	}
	if st.Checkpoint.Seq != 8 || st.Checkpoint.StateHash != meta.StateHash || st.Checkpoint.Config != meta.Config {
		t.Fatalf("checkpoint meta %+v", st.Checkpoint)
	}
	if !reflect.DeepEqual(st.CheckpointOps, history) {
		t.Fatalf("checkpoint ops %+v\nwant %+v", st.CheckpointOps, history)
	}
	if !reflect.DeepEqual(st.Tail, tail) {
		t.Fatalf("tail %+v\nwant %+v", st.Tail, tail)
	}
	if st.NextSeq != 11 {
		t.Fatalf("NextSeq = %d, want 11", st.NextSeq)
	}
}

func TestCheckpointPrunesOldFiles(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	var history []Record
	for round := 0; round < 3; round++ {
		for i := 1; i <= 2; i++ {
			recs := []Record{submitRec(round*2 + i)}
			if err := l.Append(recs); err != nil {
				t.Fatal(err)
			}
			history = Coalesce(history, recs[0])
		}
		if err := l.Checkpoint(Meta{NextID: round*2 + 3}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	ckpts, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"))
	if len(ckpts) != 1 {
		t.Fatalf("prune left %d checkpoints: %v", len(ckpts), ckpts)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if len(segs) != 1 {
		t.Fatalf("prune left %d segments: %v", len(segs), segs)
	}
	_, st := mustOpen(t, dir)
	if st.Checkpoint == nil || st.Checkpoint.Seq != 6 || len(st.Tail) != 0 {
		t.Fatalf("post-prune recovery %+v", st)
	}
}

func TestCheckpointNewerThanJournal(t *testing.T) {
	// A checkpoint whose seq exceeds every journal record (stale segments
	// lying around, covered ones pruned) recovers from the checkpoint alone.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	recs := []Record{submitRec(1)}
	if err := l.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(Meta{NextID: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Remove every segment, leaving only the checkpoint.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	for _, s := range segs {
		os.Remove(s)
	}
	_, st := mustOpen(t, dir)
	if st.Checkpoint == nil || st.Checkpoint.Seq != 1 || len(st.Tail) != 0 || st.NextSeq != 2 {
		t.Fatalf("checkpoint-only recovery %+v", st)
	}
}

func TestInvalidCheckpointFallsBackToGenesis(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1), submitRec(2)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A garbage checkpoint file: skipped with a warning; the full journal
	// still anchors recovery from genesis.
	os.WriteFile(filepath.Join(dir, ckptName(2)), []byte("not a checkpoint\n"), 0o644)
	_, st := mustOpen(t, dir)
	if st.Checkpoint != nil || len(st.Tail) != 2 {
		t.Fatalf("genesis fallback %+v", st)
	}
	if len(st.Warnings) == 0 {
		t.Fatal("broken checkpoint produced no warning")
	}
}

func TestInvalidCheckpointWithPrunedJournalFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	recs := []Record{submitRec(1)}
	if err := l.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(Meta{NextID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{submitRec(2)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Destroy the only checkpoint. The genesis segment was pruned, so the
	// surviving tail starts at seq 2 — recovery must refuse to guess.
	ckpts, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*"))
	for _, c := range ckpts {
		os.WriteFile(c, []byte("garbage\n"), 0o644)
	}
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stale-checkpoint recovery: err = %v, want ErrCorrupt", err)
	}
}

func TestSequenceGapFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1), submitRec(2), submitRec(3)}); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentPath()
	l.Close()
	// Drop the middle record entirely (clean line removal, CRCs intact).
	data, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(string(data), "\n")
	os.WriteFile(seg, []byte(lines[0]+lines[2]), 0o644)
	if _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sequence gap: err = %v, want ErrCorrupt", err)
	}
}

func TestLockExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open: err = %v, want ErrLocked", err)
	}
	l.Close()
	l2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	l2.Close()
}

// TestCheckpointCaptureSealsTheHistory pins what a checkpoint write runs
// from: the captured op lines are the journal's own frames, appends during
// the write never touch them, the write itself removes the segments the
// capture covered and the older checkpoints while CheckpointSeq stays put
// until FinishCheckpoint, and an advance right after the capture starts a
// frame of its own, so the next checkpoint keeps both advances where
// Coalesce alone keeps one.
func TestCheckpointCaptureSealsTheHistory(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	before := []Record{submitRec(1), {Op: OpAdvance, To: 10}}
	if err := l.Append(before); err != nil {
		t.Fatal(err)
	}
	p, err := l.BeginCheckpoint(Meta{NextID: 2})
	if err != nil {
		t.Fatal(err)
	}
	captured := string(bytes.Join(p.ops, nil))
	if seg, err := os.ReadFile(filepath.Join(dir, segName(1))); err != nil || string(seg) != captured {
		t.Fatalf("captured history %q is not the journal's frames %q (%v)", captured, seg, err)
	}
	after := []Record{{Op: OpAdvance, To: 20}, submitRec(2), {Op: OpAdvance, To: 30}, {Op: OpAdvance, To: 40}}
	if err := l.Append(after); err != nil {
		t.Fatal(err)
	}
	if got := string(bytes.Join(p.ops, nil)); got != captured {
		t.Fatalf("appends rewrote the captured history:\n%s\nwas\n%s", got, captured)
	}
	// write runs p's write and checks that its removals are done before
	// FinishCheckpoint and that CheckpointSeq moves only there.
	write := func(p *Pending, gone ...string) {
		t.Helper()
		prev := l.CheckpointSeq()
		if err := p.Write(); err != nil {
			t.Fatal(err)
		}
		for _, name := range gone {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s still there after the write: %v", name, err)
			}
		}
		if l.CheckpointSeq() != prev {
			t.Fatalf("CheckpointSeq = %d before FinishCheckpoint, want %d", l.CheckpointSeq(), prev)
		}
		l.FinishCheckpoint(p)
		if l.CheckpointSeq() != p.Seq() {
			t.Fatalf("CheckpointSeq = %d, want %d", l.CheckpointSeq(), p.Seq())
		}
	}
	write(p, segName(1))
	p, err = l.BeginCheckpoint(Meta{NextID: 3})
	if err != nil {
		t.Fatal(err)
	}
	write(p, segName(3), ckptName(2))
	l.Close()

	_, st := mustOpen(t, dir)
	want := []Record{before[0], before[1], after[0], after[1], after[3]}
	if st.Checkpoint == nil || st.Checkpoint.Seq != 6 || !reflect.DeepEqual(st.CheckpointOps, want) {
		t.Fatalf("checkpoint %+v ops %+v\nwant ops %+v", st.Checkpoint, st.CheckpointOps, want)
	}
}

// TestOpenRemovesStaleCheckpointTemp: a crash between a checkpoint's temp
// write and its rename leaves the temp file behind. Recovery never reads
// it, a read-only Load leaves it alone, and the next writer deletes it.
func TestOpenRemovesStaleCheckpointTemp(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	if err := l.Append([]Record{submitRec(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(Meta{NextID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{submitRec(2)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	image, err := os.ReadFile(filepath.Join(dir, ckptName(1)))
	if err != nil {
		t.Fatal(err)
	}
	whole := filepath.Join(dir, ckptPrefix+"4242"+tmpSuffix)
	torn := filepath.Join(dir, ckptPrefix+"4243"+tmpSuffix)
	if err := os.WriteFile(whole, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, image[:len(image)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(st *State) {
		t.Helper()
		if st.Checkpoint == nil || st.Checkpoint.Seq != 1 || len(st.Tail) != 1 || len(st.Warnings) != 0 {
			t.Fatalf("recovered %+v", st)
		}
	}
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(st)
	if _, err := os.Stat(torn); err != nil {
		t.Fatalf("a read-only Load removed a temp file: %v", err)
	}
	_, st = mustOpen(t, dir)
	check(st)
	for _, p := range []string{whole, torn} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Open left %s behind: %v", p, err)
		}
	}
}

func TestCoalesce(t *testing.T) {
	var ops []Record
	ops = Coalesce(ops, Record{Seq: 1, Op: OpSubmit, Job: &JobRec{ID: 1}})
	ops = Coalesce(ops, Record{Seq: 2, Op: OpAdvance, To: 10})
	ops = Coalesce(ops, Record{Seq: 3, Op: OpAdvance, To: 20})
	ops = Coalesce(ops, Record{Seq: 4, Op: OpSubmit, Job: &JobRec{ID: 2}})
	ops = Coalesce(ops, Record{Seq: 5, Op: OpAdvance, To: 20})
	if len(ops) != 4 {
		t.Fatalf("coalesced to %d ops, want 4: %+v", len(ops), ops)
	}
	if ops[1].Seq != 3 || ops[1].To != 20 {
		t.Fatalf("consecutive advances should keep the later one, got %+v", ops[1])
	}
	if ops[3].Seq != 5 {
		t.Fatalf("advance after a submit must not merge backwards, got %+v", ops[3])
	}
}

func TestFsyncAppend(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]Record{submitRec(1)}); err != nil {
		t.Fatalf("fsync append: %v", err)
	}
}

// flipPayloadByte corrupts one byte inside a framed line's JSON payload so
// the stored CRC no longer matches.
func flipPayloadByte(line string) string {
	b := []byte(line)
	b[len(b)-2] ^= 0x01
	return string(b)
}
