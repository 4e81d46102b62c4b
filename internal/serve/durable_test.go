package serve

// Recovery-equivalence tests for the durability layer. They drive the
// mutation paths the scheduler goroutine runs (submitJob, cancel, advance,
// commitWAL) synchronously, then simulate a crash by abandoning the server
// without draining — exactly what SIGKILL leaves on disk — and verify that
// a recovering server reproduces the crashed one byte for byte: equal
// StateHash, equal rendered queue. A third replica replays the journal
// from genesis (the shadow path cmd/schedload's crash mode uses) and must
// land on the same state as the checkpoint+tail recovery.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wal"
)

func durableOpts(dir string) Options {
	return Options{
		Procs:      64,
		Scheduler:  "conservative",
		Policy:     "FCFS",
		Audit:      true,
		Speed:      -1,
		Durability: DurabilityOptions{Dir: dir},
	}
}

// mutate drives a deterministic mixed workload through the server's own
// mutation paths, committing in batches like runBatch does. Every accepted
// submission and cancellation is returned so callers can assert none is
// lost.
func mutate(t *testing.T, s *Server, n int) (acceptedIDs []int, cancelled []int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id, err := s.submitJob(SubmitRequest{
			Runtime:  int64(60 + 90*(i%7)),
			Estimate: int64(120 + 90*(i%7)),
			Width:    1 + (i*11)%32,
			User:     i % 5,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		acceptedIDs = append(acceptedIDs, id)
		if i%5 == 4 {
			// Let virtual time move so jobs start and complete between
			// submissions.
			if err := s.sess.AdvanceTo(s.sess.Now() + int64(40*(i%3+1))); err != nil {
				t.Fatal(err)
			}
			s.noteAdvance()
		}
		if i%9 == 8 {
			victim := acceptedIDs[len(acceptedIDs)-1]
			if err := s.cancel(victim); err == nil {
				cancelled = append(cancelled, victim)
			}
		}
		if i%4 == 3 { // batch boundary: group commit
			if err := s.commitWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.commitWAL(); err != nil {
		t.Fatal(err)
	}
	s.publish() // what runBatch does before releasing handlers
	return acceptedIDs, cancelled
}

// queueJSON renders GET /v1/queue to a normalized string.
func queueJSON(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/queue", nil))
	if rec.Code != 200 {
		t.Fatalf("queue: status %d: %s", rec.Code, rec.Body.String())
	}
	var v map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	delete(v, "version") // publication count differs across boots
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// crash abandons the server the way SIGKILL would: release the file
// handles (the OS does this for a dead process) without draining or
// checkpointing.
func crash(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ids, cancelledIDs := mutate(t, a, 60)
	wantHash := a.StateHash()
	wantQueue := queueJSON(t, a)
	crash(t, a)

	b, err := New(durableOpts(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer b.Close()
	if got := b.StateHash(); got != wantHash {
		t.Fatalf("recovered hash %#x, crashed process had %#x", got, wantHash)
	}
	if got := queueJSON(t, b); got != wantQueue {
		t.Fatalf("recovered queue diverged:\n got %s\nwant %s", got, wantQueue)
	}
	ri := b.Recovery()
	if ri == nil || !ri.Replayed() {
		t.Fatalf("recovery info missing or empty: %+v", ri)
	}
	// No acknowledged write lost: every accepted job is known, every
	// acknowledged cancel stayed cancelled.
	for _, id := range ids {
		if _, ok := b.sess.Info(id); !ok {
			t.Fatalf("acknowledged job %d lost in recovery", id)
		}
	}
	for _, id := range cancelledIDs {
		info, _ := b.sess.Info(id)
		if info.State != sim.StateCancelled {
			t.Fatalf("acknowledged cancel of job %d lost: state %v", id, info.State)
		}
	}
}

func TestDurableCheckpointThenTailRecovery(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, a, 40)
	if err := a.checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutate(t, a, 25) // journal tail past the checkpoint
	wantHash := a.StateHash()
	wantQueue := queueJSON(t, a)
	crash(t, a)

	b, err := New(durableOpts(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer b.Close()
	ri := b.Recovery()
	if ri.CheckpointSeq == 0 || ri.TailRecords == 0 {
		t.Fatalf("expected checkpoint+tail recovery, got %+v", ri)
	}
	if got := b.StateHash(); got != wantHash {
		t.Fatalf("recovered hash %#x, crashed process had %#x", got, wantHash)
	}
	if got := queueJSON(t, b); got != wantQueue {
		t.Fatalf("recovered queue diverged:\n got %s\nwant %s", got, wantQueue)
	}

	// The genesis shadow replay (cmd/schedload's differential check) must
	// agree with the checkpoint+tail recovery.
	b.Close()
	st, err := wal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	shadowOpts := durableOpts("")
	shadowOpts.Durability = DurabilityOptions{}
	shadow, err := New(shadowOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.Replay(st.Ops()); err != nil {
		t.Fatal(err)
	}
	if got := shadow.StateHash(); got != wantHash {
		t.Fatalf("shadow genesis replay hash %#x, crashed process had %#x", got, wantHash)
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, a, 20)
	wantHash := a.StateHash()
	seg := a.log.SegmentPath()
	crash(t, a)

	// A crash mid-append leaves a partial record at the end of the active
	// segment; it was never acknowledged, so recovery truncates it.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"s":99999,"op":"sub`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, err := New(durableOpts(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer b.Close()
	if ri := b.Recovery(); ri.TruncatedBytes == 0 {
		t.Fatalf("expected torn-tail truncation, got %+v", ri)
	}
	if got := b.StateHash(); got != wantHash {
		t.Fatalf("recovered hash %#x, acknowledged state had %#x", got, wantHash)
	}
}

func TestDurableCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, a, 30)
	seg := a.log.SegmentPath()
	crash(t, a)

	// Flip a byte in an early, acknowledged record: valid records follow,
	// so this is corruption, not a torn tail — recovery must refuse rather
	// than half-apply.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	idx := len(data) / 3
	data[idx] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := New(durableOpts(dir)); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestDurableConfigMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, a, 10)
	if err := a.checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(t, a)

	opts := durableOpts(dir)
	opts.Scheduler = "easy"
	if _, err := New(opts); err == nil || !strings.Contains(err.Error(), "configured") {
		t.Fatalf("want config-mismatch refusal, got %v", err)
	}
}

func TestDurableSecondWriterLockedOut(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := New(durableOpts(dir)); !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("want ErrLocked for a second daemon on the same dir, got %v", err)
	}
}

func TestDurableCheckpointNewerThanJournal(t *testing.T) {
	// A checkpoint with its tail segments pruned (or never written past
	// it) recovers from the checkpoint alone.
	dir := t.TempDir()
	a, err := New(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, a, 15)
	if err := a.checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantHash := a.StateHash()
	crash(t, a)
	// Remove the empty post-checkpoint segment: the checkpoint is now
	// newer than every journal file.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range segs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	b, err := New(durableOpts(dir))
	if err != nil {
		t.Fatalf("recovery from checkpoint alone: %v", err)
	}
	defer b.Close()
	if got := b.StateHash(); got != wantHash {
		t.Fatalf("recovered hash %#x, want %#x", got, wantHash)
	}
}

func TestDurableDurabilityEndpoint(t *testing.T) {
	dir := t.TempDir()
	a, err := New(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	mutate(t, a, 8)

	// The loop is not running; Durability's exec would park. Read the
	// rendered JSON via the direct fill path the drained daemon uses.
	close(a.stopped)
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/durability", nil))
	if rec.Code != 200 {
		t.Fatalf("durability endpoint: status %d", rec.Code)
	}
	var info DurabilityInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || info.Seq == 0 || info.StateHash != a.sess.StateHash() {
		t.Fatalf("unexpected durability info: %+v", info)
	}
	if info.Dir != dir {
		t.Fatalf("durability dir %q, want %q", info.Dir, dir)
	}
}

// TestDurableRunDrainRestart exercises the whole live path: a durable
// server under its real Run loop accepts writes over HTTP, drains on
// context cancel (journaling the drain and writing a parting checkpoint),
// and a restarted daemon recovers the drained terminal state — still
// answering reads, refusing writes.
func TestDurableRunDrainRestart(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.Speed = 1e-9 // frozen clock: the test controls the schedule
	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := startServer(t, a)
	h := a.Handler()
	for i := 0; i < 12; i++ {
		rec := doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Runtime: 120, Estimate: 240, Width: 1 + i%8}, nil)
		if rec.Code != 201 {
			t.Fatalf("submit %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	var before DurabilityInfo
	doJSON(t, h, "GET", "/v1/debug/durability", nil, &before)
	if !before.Enabled || before.Seq == 0 {
		t.Fatalf("live durability info: %+v", before)
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	crash(t, a)

	b, err := New(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer b.Close()
	if !b.drained {
		t.Fatal("restart did not recover the drained state")
	}
	ri := b.Recovery()
	if ri == nil || !ri.Replayed() || ri.CheckpointSeq == 0 {
		t.Fatalf("expected recovery from the parting checkpoint, got %+v", ri)
	}
	snap := b.Current()
	if snap.Completed != 12 {
		t.Fatalf("recovered snapshot has %d completed jobs, want 12", snap.Completed)
	}
	stopB := startServer(t, b)
	rec := doJSON(t, b.Handler(), "POST", "/v1/jobs", SubmitRequest{Runtime: 60, Estimate: 60, Width: 1}, nil)
	if rec.Code != 503 {
		t.Fatalf("drained daemon accepted a submit: status %d", rec.Code)
	}
	if err := stopB(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// FuzzWALReplay is the differential fuzzer the issue asks for: a random
// mutation/commit schedule runs against a durable server, the "process"
// then dies without draining, and both recovery paths — checkpoint+tail in
// New and genesis replay through Replay — must land on the crashed
// process's exact StateHash.
//
// While the program runs, a concurrent reader tails the journal from
// pseudo-random positions and reloads it wholesale — the follower's view
// of a live leader. The single-writer contract promises such a reader only
// ever sees clean frames, a mid-append torn tail, or a pruned position
// (ErrGone, resync and move on); it must never see ErrCorrupt.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 1, 2, 40, 3, 0, 1, 9})
	f.Add([]byte{0, 2, 200, 0, 0, 3, 1, 1, 4, 0, 2, 10, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 3, 2, 255, 1, 0, 4, 3, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		dir := t.TempDir()
		opts := durableOpts(dir)
		a, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}

		stopReader := make(chan struct{})
		readerErr := make(chan error, 1)
		go func() {
			defer close(readerErr)
			x := uint64(len(program))*2654435761 + 1
			tl := wal.NewTailer(dir, 0)
			for {
				select {
				case <-stopReader:
					return
				default:
				}
				if _, err := tl.Next(32); err != nil {
					if errors.Is(err, wal.ErrCorrupt) {
						readerErr <- fmt.Errorf("concurrent tail: %w", err)
						return
					}
					// ErrGone (our position was pruned) or a directory
					// listing racing the checkpointer: resync from scratch,
					// like a real follower would.
					tl = wal.NewTailer(dir, 0)
					continue
				}
				x = x*1664525 + 1013904223
				switch x % 8 {
				case 0: // jump to a pseudo-random earlier position
					tl = wal.NewTailer(dir, x>>8%97)
				case 1: // a full read-only load of the live journal
					if _, err := wal.Load(dir); err != nil && errors.Is(err, wal.ErrCorrupt) {
						readerErr <- fmt.Errorf("concurrent load: %w", err)
						return
					}
				}
			}
		}()
		checkReader := func() {
			close(stopReader)
			if err := <-readerErr; err != nil {
				t.Fatal(err)
			}
		}

		var ids []int
		for pc := 0; pc < len(program); pc++ {
			switch program[pc] % 5 {
			case 0, 3: // submit (weighted: submissions dominate real load)
				arg := byte(17)
				if pc+1 < len(program) {
					pc++
					arg = program[pc]
				}
				id, err := a.submitJob(SubmitRequest{
					Runtime:  int64(30 + int(arg)*7),
					Estimate: int64(30 + int(arg)*11),
					Width:    1 + int(arg)%opts.Procs,
					User:     int(arg) % 3,
				})
				if err != nil {
					t.Fatalf("submit: %v", err)
				}
				ids = append(ids, id)
			case 1: // cancel some earlier job (404/409 are fine)
				if len(ids) > 0 {
					arg := 0
					if pc+1 < len(program) {
						pc++
						arg = int(program[pc])
					}
					_ = a.cancel(ids[arg%len(ids)])
				}
			case 2: // advance virtual time
				arg := byte(1)
				if pc+1 < len(program) {
					pc++
					arg = program[pc]
				}
				if err := a.sess.AdvanceTo(a.sess.Now() + int64(arg)); err != nil {
					t.Fatal(err)
				}
				a.noteAdvance()
			case 4: // batch boundary, occasionally a checkpoint
				if err := a.commitWAL(); err != nil {
					t.Fatal(err)
				}
				if pc%3 == 0 && a.log.TailRecords() > 0 {
					if err := a.checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := a.commitWAL(); err != nil {
			t.Fatal(err)
		}
		checkReader()
		want := a.StateHash()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}

		b, err := New(opts)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if got := b.StateHash(); got != want {
			t.Fatalf("checkpoint+tail recovery hash %#x, crashed %#x", got, want)
		}
		b.Close()

		st, err := wal.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		shadow, err := New(Options{Procs: opts.Procs, Scheduler: opts.Scheduler, Policy: opts.Policy, Audit: opts.Audit, Speed: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := shadow.Replay(st.Ops()); err != nil {
			t.Fatal(err)
		}
		if got := shadow.StateHash(); got != want {
			t.Fatalf("genesis shadow replay hash %#x, crashed %#x", got, want)
		}
	})
}

// journalOps journals ops records through s's own mutation paths — a
// submit and the clock advance after it, ops/2 times — in one commit.
func journalOps(b *testing.B, s *Server, ops int) {
	b.Helper()
	for i := 0; i < ops/2; i++ {
		if _, err := s.submitJob(SubmitRequest{Runtime: 300, Estimate: 600, Width: 1 + i%16}); err != nil {
			b.Fatal(err)
		}
		if err := s.sess.AdvanceTo(s.sess.Now() + 15); err != nil {
			b.Fatal(err)
		}
		s.noteAdvance()
	}
	if err := s.commitWAL(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecovery measures a cold boot over a populated journal — the
// number that checkpoint cadence tuning trades against append overhead.
// "ops256" not "ops-256": tools that read `go test -bench` output take one
// trailing "-N" for the GOMAXPROCS tag and would strip it.
func BenchmarkRecovery(b *testing.B) {
	for _, ops := range []int{256, 2048} {
		b.Run(fmt.Sprintf("ops%d", ops), func(b *testing.B) {
			dir := b.TempDir()
			opts := durableOpts(dir)
			a, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			journalOps(b, a, ops)
			a.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := New(opts)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
