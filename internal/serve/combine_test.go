package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wal"
)

// waitParked waits until the timed scheduler loop is parked with its timer
// armed for the earliest pending event, at least idle of wall time away,
// and nothing else left to wake it (no command, wake or checkpoint write in
// flight), so the next write that finds the lock free runs its own batch.
func waitParked(t *testing.T, s *Server, idle time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if s.mu.TryLock() {
			next, ok := s.sess.NextEventTime()
			if !ok {
				next = math.MaxInt64
			}
			parked := s.live && s.armed == next && len(s.wake) == 0 && len(s.cmds) == 0 && s.ckpt == nil &&
				(next == math.MaxInt64 || s.clock.WallUntil(next, time.Now()) >= idle)
			s.mu.Unlock()
			if parked {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the loop never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// await polls cond for up to 5 s and reports whether it came true.
func await(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// holdLoop waits until the loop is parked with nothing due for a minute,
// takes s.mu and wakes the loop, and returns once the loop has left its
// select and queues on the lock: a write made now goes into the mailbox and
// stays there until the caller unlocks.
func holdLoop(t *testing.T, s *Server) {
	t.Helper()
	waitParked(t, s, time.Minute)
	s.mu.Lock()
	s.wake <- struct{}{}
	if !await(func() bool { return len(s.wake) == 0 }) {
		s.mu.Unlock()
		t.Fatal("the loop never woke")
	}
}

// throughMailbox runs write while it holds the loop (holdLoop), so the
// command write makes waits in the mailbox, and returns once write has.
// No other writer may be active. write must not call t's methods: it runs
// on a goroutine of its own.
func throughMailbox(t *testing.T, s *Server, write func()) {
	t.Helper()
	holdLoop(t, s)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		write()
	}()
	queued := await(func() bool { return len(s.cmds) > 0 })
	s.mu.Unlock()
	<-wrote
	if !queued {
		t.Fatal("the write never reached the mailbox")
	}
}

// TestInlineWriteWakesTheLoop arms the loop's timer for a far completion,
// then makes a write that runs its own batch and starts a job at once: the
// new job's completion, now the earliest pending event, must be processed
// on time. Without the writer's wake the loop would sleep until the far
// completion, 10⁴ wall seconds away.
func TestInlineWriteWakesTheLoop(t *testing.T) {
	s, err := New(Options{Procs: 4, Scheduler: "easy", Speed: 100})
	if err != nil {
		t.Fatal(err)
	}
	stop := startServer(t, s)
	defer stop()
	long, err := s.Submit(SubmitRequest{Width: 1, Runtime: 1_000_000})
	if err != nil || long.Start == nil {
		t.Fatalf("long job: %+v, %v", long, err)
	}
	waitParked(t, s, 0)
	if s.armed != *long.Start+long.Runtime {
		t.Fatalf("the loop's timer is armed for %d, want the long job's completion at %d", s.armed, *long.Start+long.Runtime)
	}

	inline := s.ins.batchInline.Load()
	short, err := s.Submit(SubmitRequest{Width: 1, Runtime: 20}) // 0.2 s of wall time
	if err != nil || short.Start == nil {
		t.Fatalf("short job: %+v, %v", short, err)
	}
	if got := s.ins.batchInline.Load() - inline; got != 1 {
		t.Fatalf("the write ran %d batches itself, want 1", got)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if v, _ := s.Lookup(short.ID); v.End != nil {
			if *v.End != *short.Start+short.Runtime {
				t.Fatalf("completed at %d, want %d", *v.End, *short.Start+short.Runtime)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the short job's completion was not processed within 5 s of wall time (0.2 s due)")
		}
	}
}

// TestCommitFailureStopsTheDaemon closes a running daemon's journal, then
// makes one write run its own batch and, on a second daemon, forces one
// through the mailbox. On either path the failed commit stops the daemon:
// the write is refused with 503, no published snapshot shows it, Run
// returns the append error and every later write is refused as well.
func TestCommitFailureStopsTheDaemon(t *testing.T) {
	for _, path := range []string{"inline", "mailbox"} {
		t.Run(path, func(t *testing.T) {
			opts := durableOpts(t.TempDir())
			opts.Speed = 1e-9
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			runErr := make(chan error, 1)
			go func() { runErr <- s.Run(ctx) }()
			h := s.Handler()
			if rec := postJob(h, 2); rec.Code != 201 {
				t.Fatalf("first write: %d %s", rec.Code, rec.Body.String())
			}
			s.mu.Lock()
			if err := s.log.Close(); err != nil {
				t.Fatal(err)
			}
			refused := s.nextID
			s.mu.Unlock()
			before := s.Current()

			var rec *httptest.ResponseRecorder
			if path == "inline" {
				waitParked(t, s, 0)
				inline := s.ins.batchInline.Load()
				rec = postJob(h, 1)
				if got := s.ins.batchInline.Load() - inline; got != 1 {
					t.Fatalf("the write ran %d batches itself, want 1", got)
				}
			} else {
				throughMailbox(t, s, func() { rec = postJob(h, 1) })
			}
			if rec.Code != 503 {
				t.Fatalf("write after the journal closed: %d %s", rec.Code, rec.Body.String())
			}
			select {
			case err := <-runErr:
				if !errors.Is(err, os.ErrClosed) && !errors.Is(err, os.ErrInvalid) {
					t.Fatalf("Run returned %v, want the append error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run did not return")
			}
			after := s.Current()
			if _, ok := s.Lookup(refused); ok || after.Submitted != before.Submitted || after.Version != before.Version {
				t.Fatalf("the refused write was published: job %d found %v, submitted %d → %d, version %d → %d",
					refused, ok, before.Submitted, after.Submitted, before.Version, after.Version)
			}
			if rec := postJob(h, 1); rec.Code != 503 {
				t.Fatalf("write after the daemon stopped: %d %s", rec.Code, rec.Body.String())
			}
			if err := s.Cancel(1); !errors.Is(err, ErrStopped) {
				t.Fatalf("cancel after the daemon stopped: %v", err)
			}
		})
	}
}

// panicky panics on the arrival of user 13's jobs, as an engine does on a
// broken invariant.
type panicky struct{ sim.Scheduler }

func (p panicky) Arrive(now int64, j *job.Job) {
	if j.User == 13 {
		panic("broken invariant")
	}
	p.Scheduler.Arrive(now, j)
}

// TestInlinePanicStopsTheDaemon runs a batch whose scheduler panics on a
// writer's goroutine, with a second writer's command drained into the same
// batch from the mailbox. The panic stops the daemon: Run returns it,
// neither write is acknowledged or published, and every later write is
// refused, where serving on would hand the next batch a half-changed
// session.
func TestInlinePanicStopsTheDaemon(t *testing.T) {
	s, err := New(Options{Procs: 4, Scheduler: "easy", Speed: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if s.sess, err = sim.Open(sim.Machine{Procs: 4}, panicky{s.inner}, nil); err != nil {
		t.Fatal(err)
	}
	s.sess.TrackTouched()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()
	if _, err := s.Submit(SubmitRequest{Width: 1, Runtime: 60}); err != nil {
		t.Fatal(err)
	}
	before := s.Current()

	// The queued write goes into the mailbox while the loop waits for the
	// lock; the panicking one then runs inline under the same lock, as a
	// writer that took it first would, and drains the queued one.
	holdLoop(t, s)
	queued := make(chan error, 1)
	go func() {
		_, err := s.Submit(SubmitRequest{Width: 1, Runtime: 60})
		queued <- err
	}()
	if !await(func() bool { return len(s.cmds) > 0 }) {
		s.mu.Unlock()
		t.Fatal("the queued write never reached the mailbox")
	}
	c := &command{req: SubmitRequest{Width: 1, Runtime: 60, User: 13}, sent: time.Now(), done: make(chan struct{}, 1)}
	s.inline(c)
	drained, live := len(s.cmds) == 0, s.live
	s.mu.Unlock()
	if !drained || live {
		t.Fatalf("after the panic: mailbox drained %v, loop live %v", drained, live)
	}

	select {
	case err := <-runErr:
		if err == nil || !strings.Contains(err.Error(), "broken invariant") {
			t.Fatalf("Run returned %v, want the panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return")
	}
	select {
	case <-c.done:
		t.Fatal("the panicking write was acknowledged")
	default:
	}
	if err := <-queued; !errors.Is(err, ErrStopped) {
		t.Fatalf("queued write: %v, want ErrStopped", err)
	}
	if after := s.Current(); after.Version != before.Version {
		t.Fatalf("a snapshot was published after the panic: version %d → %d", before.Version, after.Version)
	}
	if _, err := s.Submit(SubmitRequest{Width: 1, Runtime: 60}); !errors.Is(err, ErrStopped) {
		t.Fatalf("write after the daemon stopped: %v", err)
	}
}

// TestWriterStartsItsCheckpoint: the one writer of a journaling daemon
// runs every batch itself, and the write that takes the journal tail to
// CheckpointOps captures the checkpoint before it returns. Once the held
// write is let go, the landing wakes the parked loop, which publishes it
// with no further write.
func TestWriterStartsItsCheckpoint(t *testing.T) {
	opts := durableOpts(t.TempDir())
	opts.Speed = 1e-9 // the first job's completion is 10¹¹ wall seconds away
	opts.Durability.CheckpointOps = 8
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := make(chan struct{})
	s.ckptHook = func() { <-release }
	stop := startServer(t, s)
	for d := s.Durability(); !d.CheckpointInFlight; {
		if d.TailRecords >= 8 {
			t.Fatalf("the tail reached CheckpointOps with no checkpoint started: %+v", d)
		}
		waitParked(t, s, 0)
		if _, err := s.Submit(SubmitRequest{Width: 64, Runtime: 120}); err != nil {
			t.Fatal(err)
		}
		if d = s.Durability(); d.TailRecords >= 8 && !d.CheckpointInFlight {
			t.Fatalf("the write that took the tail to CheckpointOps returned with no checkpoint in flight: %+v", d)
		}
	}
	if inline, batches := s.ins.batchInline.Load(), s.ins.batches.Load(); inline != batches {
		t.Fatalf("%d batches, %d of them run by the writer", batches, inline)
	}
	close(release)
	if !await(func() bool { return s.Durability().CheckpointSeq > 0 }) {
		t.Fatalf("the landed checkpoint was not published with the loop idle: %+v", s.Durability())
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestCombiningMatchesRecovery has writers submit and cancel against a
// journaling daemon in timed mode, while a holder keeps taking the lock so
// that some writes run their own batches and others, finding it busy, wait
// in the mailbox.
// After the drain, the daemon's state hash and every read body equal those
// of the daemon recovered from its journal and of a genesis replay of it.
func TestCombiningMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.Speed = 1e5 // a job of 60–600 virtual seconds runs 0.6–6 ms
	opts.Durability.CheckpointOps = 64
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := startServer(t, s)
	writes := 50
	if raceDetector {
		writes = 25
	}
	var errs [4]error
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := stats.NewRNG(int64(w + 1))
			var mine []int
			for range writes {
				if len(mine) > 0 && r.Intn(3) == 0 {
					at := r.Intn(len(mine))
					// A job that has started answers 409; either way it is settled.
					var ce *clientError
					if err := s.Cancel(mine[at]); err != nil && !(errors.As(err, &ce) && ce.code == 409) {
						errs[w] = err
						return
					}
					mine = append(mine[:at], mine[at+1:]...)
					continue
				}
				rt := int64(r.IntRange(60, 600))
				v, err := s.Submit(SubmitRequest{Width: r.IntRange(1, 24), Runtime: rt, Estimate: 2 * rt, User: w})
				if err != nil {
					errs[w] = err
					return
				}
				mine = append(mine, v.ID)
			}
		}()
	}
	quit, held := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(held)
		for {
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
			s.mu.Lock()
			time.Sleep(200 * time.Microsecond)
			s.mu.Unlock()
		}
	}()
	wg.Wait()
	close(quit)
	<-held
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	// One write each way for certain, beside whatever the race produced.
	waitParked(t, s, 0)
	if _, err := s.Submit(SubmitRequest{Width: 1, Runtime: 60}); err != nil {
		t.Fatal(err)
	}
	var mailboxErr error
	throughMailbox(t, s, func() { _, mailboxErr = s.Submit(SubmitRequest{Width: 2, Runtime: 90}) })
	if mailboxErr != nil {
		t.Fatal(mailboxErr)
	}
	inline, batches := s.ins.batchInline.Load(), s.ins.batches.Load()
	if inline == 0 || batches-inline == 0 {
		t.Fatalf("%d batches, %d of them inline: want both paths taken", batches, inline)
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d batches, %d run by their writers, %d journal records", batches, inline, s.walSeq.Load())

	recovered, err := New(opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	st, err := wal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayOpts := opts
	replayOpts.Durability = DurabilityOptions{}
	replayed, err := New(replayOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayed.Replay(st.Ops()); err != nil {
		t.Fatalf("genesis replay: %v", err)
	}
	last := s.nextID - 1
	for name, other := range map[string]*Server{"recovered": recovered, "replayed": replayed} {
		if got, want := other.StateHash(), s.StateHash(); got != want {
			t.Fatalf("%s state hash %#x, the daemon's %#x", name, got, want)
		}
		// queueJSON leaves out the publication count.
		if got, want := queueJSON(t, other), queueJSON(t, s); got != want {
			t.Fatalf("%s queue body:\n got %s\nwant %s", name, got, want)
		}
		for id := 1; id <= last; id++ {
			path := fmt.Sprintf("/v1/jobs/%d", id)
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			other.Handler().ServeHTTP(got, httptest.NewRequest("GET", path, nil))
			s.Handler().ServeHTTP(want, httptest.NewRequest("GET", path, nil))
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("%s %s: %d %s, the daemon's %d %s", name, path, got.Code, got.Body, want.Code, want.Body)
			}
		}
	}
}

// TestDrainedTimedNowMatchesRecovery drains a timed daemon with a long job
// queued behind another. The drain fast-forwards the session far past the
// wall clock, and the last snapshot reports the session's instant, and the
// utilization figured to it, as the daemon recovered from its journal does.
func TestDrainedTimedNowMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.Speed = 1e5 // each job runs 10⁴ wall seconds, so only the drain ends them
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := startServer(t, s)
	for range 2 {
		if _, err := s.Submit(SubmitRequest{Width: 64, Runtime: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := New(opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	last := func(srv *Server) (now int64, util string) {
		var q QueueResponse
		doJSON(t, srv.Handler(), "GET", "/v1/queue", nil, &q)
		m := doJSON(t, srv.Handler(), "GET", "/metrics", nil, nil).Body.String()
		_, util, _ = strings.Cut(m, "\nschedd_utilization ")
		util, _, _ = strings.Cut(util, "\n")
		return q.Now, util
	}
	now, util := last(s)
	wantNow, wantUtil := last(recovered)
	if now < 2e9 || now != wantNow || util != wantUtil {
		t.Fatalf("drained daemon: now %d, utilization %s; recovered: now %d, utilization %s", now, util, wantNow, wantUtil)
	}
}
