package serve

// Quorum-ack tests: the follower registry's commit-time liveness rule, the
// wait/wake plumbing between HTTP ack goroutines and the scheduler
// goroutine, and the end-to-end write path under -ack-quorum — strict
// rejection, degrade mode, and a live follower satisfying the quorum
// through real /v1/wal pulls.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

func TestFollowerRegistryTTLLiveness(t *testing.T) {
	fr := &followerRegistry{}
	now := time.Now()

	// A registry entry whose acknowledged position covers the sequence but
	// whose follower has been silent past FollowerTTL is exactly what a
	// follower killed between registration and commit leaves behind. It
	// must never satisfy a quorum: the process behind it may hold nothing.
	fr.ack("dead", 10, "", now.Add(-FollowerTTL-time.Second))
	if got := fr.liveAckedLocked(10, now); got != 0 {
		t.Fatalf("TTL-expired follower counted toward quorum: liveAcked = %d, want 0", got)
	}
	if fr.waitQuorum(10, 1, 50*time.Millisecond) {
		t.Fatal("waitQuorum satisfied by a TTL-expired follower")
	}

	// The same position from a live follower counts.
	fr.ack("live", 10, "", now)
	if got := fr.liveAckedLocked(10, now); got != 1 {
		t.Fatalf("live follower not counted: liveAcked = %d, want 1", got)
	}
	if !fr.waitQuorum(10, 1, 50*time.Millisecond) {
		t.Fatal("waitQuorum missed a live, caught-up follower")
	}
	// A live follower that has not yet reached the sequence does not count.
	if fr.waitQuorum(11, 1, 50*time.Millisecond) {
		t.Fatal("waitQuorum satisfied below the follower's acknowledged position")
	}
}

func TestWaitQuorumWakesOnAck(t *testing.T) {
	fr := &followerRegistry{}
	go func() {
		time.Sleep(20 * time.Millisecond)
		fr.ack("f1", 5, "", time.Now())
	}()
	start := time.Now()
	if !fr.waitQuorum(5, 1, 5*time.Second) {
		t.Fatal("waitQuorum timed out despite an ack landing")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("waitQuorum took %v — it polled instead of waking on the ack", waited)
	}
}

// quorumOpts is a frozen durable leader holding every commit batch for one
// follower confirmation.
func quorumOpts(dir string, timeout time.Duration, degrade bool) Options {
	o := Options{
		Procs: 8, Scheduler: "easy", Policy: "FCFS", Audit: true, Speed: 1e-9,
		Durability: DurabilityOptions{
			Dir:           dir,
			AckQuorum:     1,
			QuorumTimeout: timeout,
			QuorumDegrade: degrade,
		},
	}
	return o
}

func postJob(h http.Handler, width int) *httptest.ResponseRecorder {
	body, _ := json.Marshal(map[string]any{"width": width, "runtime": 100})
	req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestQuorumDeadFollowerRejectsWrites is the regression for the silent-
// quorum bug: a follower registers (its first /v1/wal pull acknowledges
// seq 0) and is then killed before the next commit. Its registry entry is
// fresh — well inside FollowerTTL — but it will never confirm the batch,
// so in strict mode the write must be refused with 503, not acknowledged
// on the strength of a registration from a dead process.
func TestQuorumDeadFollowerRejectsWrites(t *testing.T) {
	s, stop := frozenServer(t, quorumOpts(t.TempDir(), 100*time.Millisecond, false))
	defer stop()
	h := s.Handler()

	// One pull, then death: the follower registers at seq 0 and vanishes.
	req := httptest.NewRequest("GET", "/v1/wal?follower=ghost&from=1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("registration pull: %d %s", rec.Code, rec.Body.String())
	}

	rec = postJob(h, 1)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write with only a dead registered follower: %d %s, want 503", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "quorum") {
		t.Fatalf("503 body does not name the quorum: %s", rec.Body.String())
	}
	if got := s.Replication().QuorumRejected; got < 1 {
		t.Fatalf("QuorumRejected = %d, want >= 1", got)
	}
	// The write is on the leader's journal (durable) even though refused —
	// the contract is "not acknowledged", not "not attempted". The job must
	// therefore exist: refusal means the client cannot assume durability,
	// not that the leader discarded the submission.
	if s.DurableSeq() == 0 {
		t.Fatal("refused write never reached the journal")
	}
}

// TestQuorumStaleEntryCoveringSeq drives the commit-time re-validation
// directly: an entry whose acknowledged position covers every future
// sequence but whose last poll is past FollowerTTL must not carry a
// quorum, even though a naive registration-time count would include it.
func TestQuorumStaleEntryCoveringSeq(t *testing.T) {
	s, stop := frozenServer(t, quorumOpts(t.TempDir(), 100*time.Millisecond, false))
	defer stop()
	h := s.Handler()

	// A follower that acknowledged far ahead (as if it had replicated a
	// long history) and then went silent past the TTL.
	s.flw.ack("stale", 1<<30, "", time.Now().Add(-FollowerTTL-time.Second))

	rec := postJob(h, 1)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write vouched for by a TTL-expired entry: %d %s, want 503", rec.Code, rec.Body.String())
	}
}

func TestQuorumDegradeAcksOnTimeout(t *testing.T) {
	s, stop := frozenServer(t, quorumOpts(t.TempDir(), 50*time.Millisecond, true))
	defer stop()
	h := s.Handler()

	rec := postJob(h, 1)
	if rec.Code != http.StatusCreated {
		t.Fatalf("degrade-mode write: %d %s, want 201", rec.Code, rec.Body.String())
	}
	if got := s.Replication().QuorumDegraded; got < 1 {
		t.Fatalf("QuorumDegraded = %d, want >= 1", got)
	}
}

// pullWAL performs one follower /v1/wal pull against the handler and
// returns the decoded records.
func pullWAL(t *testing.T, h http.Handler, id string, from uint64, wait time.Duration) []wal.Record {
	t.Helper()
	url := fmt.Sprintf("/v1/wal?follower=%s&from=%d", id, from)
	if wait > 0 {
		url += "&wait=" + wait.String()
	}
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pull %s: %d %s", url, rec.Code, rec.Body.String())
	}
	var recs []wal.Record
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		r, err := wal.DecodeRecord(line)
		if err != nil {
			t.Fatalf("decode shipped record: %v", err)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestQuorumSatisfiedByLiveFollower is the happy path: a simulated
// follower keeps pulling /v1/wal — each pull acknowledging everything it
// previously received — and writes acknowledge within the quorum timeout,
// with no degrade and no rejection.
func TestQuorumSatisfiedByLiveFollower(t *testing.T) {
	s, stop := frozenServer(t, quorumOpts(t.TempDir(), 5*time.Second, false))
	defer stop()
	h := s.Handler()

	followerStop := make(chan struct{})
	followerDone := make(chan struct{})
	var acked atomic.Uint64
	go func() {
		defer close(followerDone)
		from := uint64(1)
		for {
			select {
			case <-followerStop:
				return
			default:
			}
			recs := pullWAL(t, h, "sim", from, 50*time.Millisecond)
			if len(recs) > 0 {
				from = recs[len(recs)-1].Seq + 1
				acked.Store(from - 1)
			}
		}
	}()
	defer func() { close(followerStop); <-followerDone }()

	for i := 0; i < 5; i++ {
		rec := postJob(h, 1+i%4)
		if rec.Code != http.StatusCreated {
			t.Fatalf("write %d under live-follower quorum: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	info := s.Replication()
	if info.QuorumDegraded != 0 || info.QuorumRejected != 0 {
		t.Fatalf("quorum not clean with a live follower: %d degraded, %d rejected", info.QuorumDegraded, info.QuorumRejected)
	}
	if got, want := acked.Load(), s.DurableSeq(); got < want {
		// The follower acks on its next pull; give it one more round.
		deadline := time.Now().Add(2 * time.Second)
		for acked.Load() < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if acked.Load() < want {
			t.Fatalf("follower acknowledged %d, leader durable at %d", acked.Load(), want)
		}
	}
}

// TestDivergedFollowerDoesNotCount pins the ack-before-validity bug: a
// follower pulling from beyond this journal is on another lineage — it
// gets 409, and its claimed position must not be registered, or it would
// vouch for every future write of a journal it does not hold.
func TestDivergedFollowerDoesNotCount(t *testing.T) {
	s, stop := frozenServer(t, quorumOpts(t.TempDir(), 100*time.Millisecond, false))
	defer stop()
	h := s.Handler()

	req := httptest.NewRequest("GET", "/v1/wal?follower=stray&from=1000", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("pull from beyond the journal: %d %s, want 409", rec.Code, rec.Body.String())
	}
	if views := s.FollowerViews(); len(views) != 0 {
		t.Fatalf("refused follower was registered: %+v", views)
	}
	if rec := postJob(h, 1); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write vouched for by a diverged follower: %d %s, want 503", rec.Code, rec.Body.String())
	}
}

// TestPullAheadOfFsyncIsValid pins the other half: wal.Options.Notify wakes
// followers after a batch's write and before its fsync, so a healthy
// follower reads the batch and pulls again from one past it while the
// durable position still trails. That pull is valid — acked, long-polled —
// not a diverged lineage; only a position past the appended one is.
func TestPullAheadOfFsyncIsValid(t *testing.T) {
	s, stop := frozenServer(t, quorumOpts(t.TempDir(), 100*time.Millisecond, true))
	defer stop()
	h := s.Handler()
	if rec := postJob(h, 1); rec.Code != http.StatusCreated {
		t.Fatalf("seed write: %d %s", rec.Code, rec.Body.String())
	}
	durable := s.DurableSeq()

	// What Append does between its write and its fsync: the frames are in
	// the segment, Notify has fired, DurableSeq has not moved.
	var batch []byte
	for i := uint64(1); i <= 2; i++ {
		var err error
		if batch, err = wal.EncodeRecord(batch, wal.Record{Seq: durable + i, Op: wal.OpAdvance, To: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(s.log.SegmentPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(batch); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s.notifyAppend(durable + 2)

	if recs := pullWAL(t, h, "f", durable+1, 0); len(recs) != 2 || recs[1].Seq != durable+2 {
		t.Fatalf("pull of the un-synced batch = %+v", recs)
	}
	if recs := pullWAL(t, h, "f", durable+3, 0); len(recs) != 0 { // pullWAL fails the test on a non-200
		t.Fatalf("caught-up pull returned %d records", len(recs))
	}
	if views := s.FollowerViews(); len(views) != 1 || views[0].Acked != durable+2 {
		t.Fatalf("ack of the un-synced batch not recorded: %+v", views)
	}
	req := httptest.NewRequest("GET", fmt.Sprintf("/v1/wal?follower=f&from=%d", durable+4), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("pull from past the appended position: %d %s, want 409", rec.Code, rec.Body.String())
	}
}

// TestConcurrentPullsUnderOneFollowerID: a follower's Tailer is kept
// between its pulls, and a Tailer serves one goroutine. Pulls racing under
// one ID — a timed-out long-poll and its retry — must each still get
// exactly the records they asked for.
func TestConcurrentPullsUnderOneFollowerID(t *testing.T) {
	opts := quorumOpts(t.TempDir(), 0, false)
	opts.Durability.AckQuorum = 0
	s, stop := frozenServer(t, opts)
	defer stop()
	h := s.Handler()
	for i := 0; i < 40; i++ {
		if rec := postJob(h, 1+i%8); rec.Code != http.StatusCreated {
			t.Fatalf("write %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	end := s.DurableSeq()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for from := uint64(1); from <= end; {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/wal?follower=twin&from=%d&max=3", from), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("pull from %d: %d %s", from, rec.Code, rec.Body.String())
					return
				}
				sc := wal.NewScanner("pull", rec.Body.Bytes())
				for {
					r, _, err := sc.Next()
					if err == io.EOF {
						break
					}
					if err != nil || r.Seq != from {
						t.Errorf("pull answered seq %d (%v) where %d was due", r.Seq, err, from)
						return
					}
					from++
				}
			}
		}()
	}
	wg.Wait()
}
