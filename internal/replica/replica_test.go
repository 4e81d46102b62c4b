package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

func init() {
	// Replication events (resyncs, promotions) are intentionally loud;
	// keep test output readable.
	logf = func(string, ...any) {}
}

// leaderOpts is the shared configuration: every follower must mirror the
// leader's scheduling configuration exactly, like a restart of the leader
// itself would.
func leaderOpts(dir string) serve.Options {
	return serve.Options{
		Procs: 8, Scheduler: "easy", Policy: "FCFS", Audit: true, Speed: 1e-9,
		Durability: serve.DurabilityOptions{Dir: dir},
	}
}

func followerOpts() serve.Options {
	o := leaderOpts("")
	o.Durability = serve.DurabilityOptions{}
	return o
}

// startLeader builds and runs a frozen-clock durable leader.
func startLeader(t *testing.T, opts serve.Options) (*serve.Server, func() error) {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	return s, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("leader did not stop")
			return nil
		}
	}
}

func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// submitOne posts one job to the leader and returns its view.
func submitOne(t *testing.T, h http.Handler, width int, runtime int64) serve.JobView {
	t.Helper()
	rec := do(t, h, "POST", "/v1/jobs", serve.SubmitRequest{Width: width, Runtime: runtime})
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var v serve.JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// compareGET asserts leader and follower answer a read byte-identically.
func compareGET(t *testing.T, leader, follower http.Handler, path string) {
	t.Helper()
	lr := do(t, leader, "GET", path, nil)
	fr := do(t, follower, "GET", path, nil)
	if lr.Code != fr.Code {
		t.Fatalf("GET %s: leader %d, follower %d", path, lr.Code, fr.Code)
	}
	if !bytes.Equal(lr.Body.Bytes(), fr.Body.Bytes()) {
		t.Fatalf("GET %s diverged:\nleader:   %s\nfollower: %s", path, lr.Body.String(), fr.Body.String())
	}
}

// leaderStateHash reads the live leader's session digest over its debug
// endpoint (the only safe way while its loop runs).
func leaderStateHash(t *testing.T, h http.Handler) uint64 {
	t.Helper()
	rec := do(t, h, "GET", "/v1/debug/durability", nil)
	var info struct {
		StateHash string `json:"state_hash"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	hash, err := strconv.ParseUint(info.StateHash, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// drainSync pulls until the source yields nothing new.
func drainSync(t *testing.T, r *Replica) {
	t.Helper()
	for {
		before := r.AppliedSeq()
		if err := r.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if r.AppliedSeq() == before {
			return
		}
	}
}

// TestDirFollowerByteIdentity drives a leader and a shared-directory
// follower in lockstep — one acknowledged write, one replication pull —
// and requires every read endpoint to answer byte-identically at every
// step, snapshot versions included. At the end the leader drains and the
// follower (forced through the full-resync path by the parting
// checkpoint's pruning) must land on the same state hash.
func TestDirFollowerByteIdentity(t *testing.T) {
	dir := t.TempDir()
	leader, stop := startLeader(t, leaderOpts(dir))
	lh := leader.Handler()

	rep, err := New(Options{Source: dir, Serve: followerOpts()})
	if err != nil {
		t.Fatal(err)
	}
	fh := rep.Handler()

	var ids []int
	for i := 0; i < 30; i++ {
		// Full-width jobs: only the first can start, so every later one
		// stays queued (nothing can backfill) and cancels are deterministic.
		v := submitOne(t, lh, 8, 100+int64(i))
		ids = append(ids, v.ID)
		if err := rep.Sync(); err != nil {
			t.Fatalf("sync after submit %d: %v", i, err)
		}
		if i%11 == 10 {
			if rec := do(t, lh, "DELETE", fmt.Sprintf("/v1/jobs/%d", ids[len(ids)-3]), nil); rec.Code != http.StatusNoContent {
				t.Fatalf("cancel: %d %s", rec.Code, rec.Body.String())
			}
			// One pull per leader commit batch keeps the snapshot version
			// numbering in lockstep too.
			if err := rep.Sync(); err != nil {
				t.Fatalf("sync after cancel %d: %v", i, err)
			}
		}
		compareGET(t, lh, fh, "/v1/queue")
		compareGET(t, lh, fh, fmt.Sprintf("/v1/jobs/%d", v.ID))
		compareGET(t, lh, fh, "/healthz")
	}

	// The follower's /metrics is the leader's body plus the replica gauges.
	lm := do(t, lh, "GET", "/metrics", nil).Body.String()
	fm := do(t, fh, "GET", "/metrics", nil).Body.String()
	if !strings.HasPrefix(fm, lm) {
		t.Fatalf("follower metrics is not leader metrics + suffix:\nleader:\n%s\nfollower:\n%s", lm, fm)
	}
	if !strings.Contains(fm, "schedd_replica_applied_seq") || !strings.Contains(fm, "schedd_replica_pull_bytes_total") {
		t.Fatalf("follower metrics missing replica gauges:\n%s", fm)
	}
	// A pull costs the bytes it returns: thirty-odd pulls later the
	// follower has read each byte of the journal's one segment once.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("journal segments: %v", segs)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if info := rep.Replication(); info.PullRecords != int64(info.AppliedSeq) || info.PullBytes != fi.Size() {
		t.Fatalf("pulled %d records in %d bytes; applied seq %d, segment holds %d bytes", info.PullRecords, info.PullBytes, info.AppliedSeq, fi.Size())
	}

	if err := stop(); err != nil {
		t.Fatalf("leader drain: %v", err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	drainSync(t, rep)
	if lhash, fhash := leader.StateHash(), rep.Server().StateHash(); lhash != fhash {
		t.Fatalf("state hash diverged after drain: leader %#x, follower %#x", lhash, fhash)
	}
}

// TestHTTPFollowerByteIdentity runs the same lockstep over the leader's
// /v1/wal endpoint, with checkpoints every few records — the registered
// follower's retention floor must keep the journal tailable (zero forced
// resyncs) even though the leader checkpoints aggressively.
func TestHTTPFollowerByteIdentity(t *testing.T) {
	dir := t.TempDir()
	opts := leaderOpts(dir)
	opts.Durability.CheckpointOps = 4
	leader, stop := startLeader(t, opts)
	defer leader.Close()
	lh := leader.Handler()
	ts := httptest.NewServer(lh)
	defer ts.Close()

	rep, err := New(Options{Source: ts.URL, ID: "rt-1", Serve: followerOpts()})
	if err != nil {
		t.Fatal(err)
	}
	fh := rep.Handler()

	for i := 0; i < 24; i++ {
		v := submitOne(t, lh, 1+i%8, 200+int64(i))
		if err := rep.Sync(); err != nil {
			t.Fatalf("sync after write %d: %v", i, err)
		}
		compareGET(t, lh, fh, "/v1/queue")
		compareGET(t, lh, fh, fmt.Sprintf("/v1/jobs/%d", v.ID))
		compareGET(t, lh, fh, "/healthz")
	}

	info := rep.Replication()
	if info.Role != "follower" || info.LagOps != 0 || info.AppliedSeq == 0 || info.AppliedSeq != info.LeaderSeq {
		t.Fatalf("follower should be caught up: %+v", info)
	}
	if info.Resyncs != 0 {
		t.Fatalf("retention floor failed: follower was forced into %d resyncs", info.Resyncs)
	}

	var lrep serve.ReplicationInfo
	if err := json.Unmarshal(do(t, lh, "GET", "/v1/debug/replication", nil).Body.Bytes(), &lrep); err != nil {
		t.Fatal(err)
	}
	if lrep.Role != "leader" || len(lrep.Followers) != 1 || lrep.Followers[0].ID != "rt-1" {
		t.Fatalf("leader should list the registered follower: %+v", lrep)
	}
	if lrep.Seq != info.AppliedSeq {
		t.Fatalf("leader seq %d != follower applied %d", lrep.Seq, info.AppliedSeq)
	}
	// A pull costs the bytes it returns on the leader too: the follower's
	// Tailer is kept between pulls, so across rotations every byte shipped
	// was read from disk exactly once.
	if info.PullRecords != int64(info.AppliedSeq) || lrep.PullRecords != info.PullRecords || lrep.PullBytes != info.PullBytes {
		t.Fatalf("follower pulled %d records in %d bytes, leader shipped %d and read %d bytes to do it",
			info.PullRecords, info.PullBytes, lrep.PullRecords, lrep.PullBytes)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPResyncAfterPrune starts a follower against a leader whose
// journal history is already compacted — the incremental position is gone,
// so the first pull must come back as a full-checkpoint resync and land
// the follower on the leader's exact state.
func TestHTTPResyncAfterPrune(t *testing.T) {
	dir := t.TempDir()
	opts := leaderOpts(dir)
	opts.Durability.CheckpointOps = 4
	leader, stop := startLeader(t, opts)
	defer leader.Close()
	lh := leader.Handler()
	for i := 0; i < 20; i++ {
		submitOne(t, lh, 1+i%8, 100)
	}
	ts := httptest.NewServer(lh)
	defer ts.Close()

	rep, err := New(Options{Source: ts.URL, ID: "late", Serve: followerOpts()})
	if err != nil {
		t.Fatal(err)
	}
	drainSync(t, rep)
	if n := rep.Replication().Resyncs; n != 1 {
		t.Fatalf("late follower should resync exactly once, got %d", n)
	}
	if lhash, fhash := leaderStateHash(t, lh), rep.Server().StateHash(); lhash != fhash {
		t.Fatalf("state hash diverged after resync: leader %#x, follower %#x", lhash, fhash)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// crashLeader writes a journal the way a daemon would and "crashes":
// closes the log without a drain record or parting checkpoint.
func crashLeader(t *testing.T, dir string, jobs int) {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	for i := 1; i <= jobs; i++ {
		recs = append(recs, wal.Record{Op: wal.OpSubmit, Job: &wal.JobRec{
			ID: i, Arrival: int64(i - 1), Runtime: 100, Estimate: 120, Width: 4, User: i % 5,
		}})
	}
	recs = append(recs, wal.Record{Op: wal.OpAdvance, To: 50})
	recs = append(recs, wal.Record{Op: wal.OpCancel, ID: jobs}) // still queued: 8 procs hold 2 width-4 jobs
	if err := l.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// shadowHash replays a journal through a fresh server and returns its
// digest — the differential check the crash drills use.
func shadowHash(t *testing.T, dir string) uint64 {
	t.Helper()
	st, err := wal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := serve.New(followerOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.Replay(st.Ops()); err != nil {
		t.Fatal(err)
	}
	return shadow.StateHash()
}

// TestPromoteSharedDirTakeover is the failover path on shared storage: the
// leader dies mid-flight, the follower promotes over the same journal
// directory, finishes the tail it had not yet applied, fences the lineage
// with a term record, and starts accepting writes — with every record the
// dead leader committed intact.
func TestPromoteSharedDirTakeover(t *testing.T) {
	dir := t.TempDir()

	// A still-live leader must fence the takeover: its flock refuses Open.
	live, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(Options{Source: dir, Serve: followerOpts(), MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Promote(); !errors.Is(err, wal.ErrLocked) {
		t.Fatalf("promotion over a live leader should hit the flock fence, got %v", err)
	}
	if rep.Promoted() {
		t.Fatal("failed promotion must leave the replica a follower")
	}
	live.Close()

	crashLeader(t, dir, 30)
	// One bounded pull leaves the follower lagging; promotion must finish
	// the catch-up itself.
	if err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if rep.AppliedSeq() >= 32 {
		t.Fatalf("test wants a lagging follower, applied %d", rep.AppliedSeq())
	}
	if err := rep.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !rep.Promoted() || rep.Server().Term() != 1 {
		t.Fatalf("promoted=%v term=%d, want true/1", rep.Promoted(), rep.Server().Term())
	}
	if got, want := rep.Server().StateHash(), shadowHash(t, dir); got != want {
		t.Fatalf("promoted state %#x != journal shadow replay %#x", got, want)
	}

	// The promoted daemon serves writes; the journal keeps growing in the
	// same directory under the new term.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	h := rep.Handler()
	v := submitOne(t, h, 2, 500)
	if v.ID <= 30 {
		t.Fatalf("promoted leader re-issued an old job ID: %d", v.ID)
	}
	var info serve.ReplicationInfo
	if err := json.Unmarshal(do(t, h, "GET", "/v1/debug/replication", nil).Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Promoted || info.Role != "leader" || info.Term != 1 {
		t.Fatalf("replication view after promotion: %+v", info)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("promoted run: %v", err)
	}
	if err := rep.Server().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteFreshDirSeedsJournal promotes an up-to-date follower into a
// fresh journal directory: its replicated history is re-journaled there,
// and a cold replay of the new journal reproduces the promoted state.
func TestPromoteFreshDirSeedsJournal(t *testing.T) {
	src := t.TempDir()
	crashLeader(t, src, 12)
	fresh := t.TempDir()
	rep, err := New(Options{Source: src, PromoteDir: fresh, Serve: followerOpts()})
	if err != nil {
		t.Fatal(err)
	}
	drainSync(t, rep)
	if err := rep.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if got, want := rep.Server().StateHash(), shadowHash(t, fresh); got != want {
		t.Fatalf("promoted state %#x != fresh journal shadow replay %#x", got, want)
	}
	if rep.Server().Term() != 1 {
		t.Fatalf("term = %d, want 1", rep.Server().Term())
	}
	if err := rep.Server().Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerWriteFence: every write on a follower is refused with 421
// and the leader's address.
func TestFollowerWriteFence(t *testing.T) {
	dir := t.TempDir()
	crashLeader(t, dir, 3)
	rep, err := New(Options{Source: dir, Serve: followerOpts()})
	if err != nil {
		t.Fatal(err)
	}
	drainSync(t, rep)
	h := rep.Handler()
	if rec := do(t, h, "POST", "/v1/jobs", serve.SubmitRequest{Width: 1, Runtime: 10}); rec.Code != http.StatusMisdirectedRequest || !strings.Contains(rec.Body.String(), dir) {
		t.Fatalf("follower submit: %d %s, want 421 naming the leader", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "DELETE", "/v1/jobs/1", nil); rec.Code != http.StatusMisdirectedRequest {
		t.Fatalf("follower cancel: %d, want 421", rec.Code)
	}
	// Reads keep working through the fence.
	if rec := do(t, h, "GET", "/v1/queue", nil); rec.Code != http.StatusOK {
		t.Fatalf("follower read: %d", rec.Code)
	}
}

// TestMinSeqBarrier: a ?min_seq= read holds until replication has applied
// that far, and fails loudly when it cannot.
func TestMinSeqBarrier(t *testing.T) {
	dir := t.TempDir()
	crashLeader(t, dir, 5)
	rep, err := New(Options{Source: dir, Serve: followerOpts()})
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Handler()

	released := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		released <- do(t, h, "GET", "/v1/queue?min_seq=5", nil)
	}()
	select {
	case rec := <-released:
		t.Fatalf("barrier released before replication caught up: %d %s", rec.Code, rec.Body.String())
	case <-time.After(50 * time.Millisecond):
	}
	drainSync(t, rep)
	select {
	case rec := <-released:
		if rec.Code != http.StatusOK {
			t.Fatalf("barrier read after catch-up: %d %s", rec.Code, rec.Body.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("barrier never released")
	}

	old := barrierTimeout
	barrierTimeout = 30 * time.Millisecond
	defer func() { barrierTimeout = old }()
	if rec := do(t, h, "GET", "/v1/queue?min_seq=99999", nil); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("unreachable barrier: %d, want 504", rec.Code)
	}
}

// TestAutoPromoteOnLeaderDeath arms the health probe: when the leader
// stops answering, the Run loop promotes on its own and starts serving
// writes.
func TestAutoPromoteOnLeaderDeath(t *testing.T) {
	dir := t.TempDir()
	crashLeader(t, dir, 6)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rep, err := New(Options{
		Source: dir, Serve: followerOpts(),
		HealthURL: ts.URL, AutoPromote: 2, Poll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()

	time.Sleep(50 * time.Millisecond)
	if rep.Promoted() {
		t.Fatal("replica promoted while the leader was healthy")
	}
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !rep.Promoted() {
		if time.Now().After(deadline) {
			t.Fatal("replica never auto-promoted after leader death")
		}
		time.Sleep(10 * time.Millisecond)
	}
	v := submitOne(t, rep.Handler(), 1, 100)
	if v.ID <= 6 {
		t.Fatalf("promoted leader re-issued job ID %d", v.ID)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	rep.Server().Close()
}

// TestLiveFollowStress tails a leader that is appending concurrently —
// writer goroutines hammering the leader while the follower pulls as fast
// as it can — and requires hash equality once everything quiesces. (The
// -race build of this test is the torn-read detector for the whole
// replication read path.)
func TestLiveFollowStress(t *testing.T) {
	dir := t.TempDir()
	leader, stop := startLeader(t, leaderOpts(dir))
	lh := leader.Handler()
	rep, err := New(Options{Source: dir, Serve: followerOpts(), MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < 200; i++ {
			v := submitOne(t, lh, 1+i%8, 100+int64(i%40))
			if i%13 == 12 {
				do(t, lh, "DELETE", fmt.Sprintf("/v1/jobs/%d", v.ID), nil)
			}
		}
	}()
	syncDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-writerDone:
				syncDone <- nil
				return
			default:
				if err := rep.Sync(); err != nil {
					syncDone <- err
					return
				}
			}
		}
	}()
	if err := <-syncDone; err != nil {
		t.Fatalf("concurrent sync: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("leader drain: %v", err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	drainSync(t, rep)
	if lhash, fhash := leader.StateHash(), rep.Server().StateHash(); lhash != fhash {
		t.Fatalf("state hash diverged: leader %#x, follower %#x", lhash, fhash)
	}
}

// TestFollowerRestart rebuilds a follower from scratch against the same
// journal — a restart loses nothing and lands on the same state.
func TestFollowerRestart(t *testing.T) {
	dir := t.TempDir()
	crashLeader(t, dir, 9)
	first, err := New(Options{Source: dir, Serve: followerOpts()})
	if err != nil {
		t.Fatal(err)
	}
	drainSync(t, first)

	second, err := New(Options{Source: dir, Serve: followerOpts(), MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	drainSync(t, second)
	if a, b := first.Server().StateHash(), second.Server().StateHash(); a != b {
		t.Fatalf("restarted follower diverged: %#x vs %#x", a, b)
	}
	if first.AppliedSeq() != second.AppliedSeq() {
		t.Fatalf("applied %d vs %d", first.AppliedSeq(), second.AppliedSeq())
	}
}

// TestHandEditedJournalFollowsThroughTheFallback pins the decode-fallback
// counter's reading: a journal whose records are valid JSON but not in the
// form this build writes (here, a space after every opening brace, CRCs
// recomputed) replicates to the same state, and every such record shows in
// decode_fallbacks on /v1/debug/replication.
func TestHandEditedJournalFollowsThroughTheFallback(t *testing.T) {
	dir := t.TempDir()
	crashLeader(t, dir, 9)
	want := shadowHash(t, dir)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var edited []byte
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for _, line := range lines {
		payload := append([]byte("{ "), line[len("00000000 {"):]...)
		edited = fmt.Appendf(edited, "%08x %s\n", crc32.Checksum(payload, castagnoli), payload)
	}
	if err := os.WriteFile(segs[0], edited, 0o644); err != nil {
		t.Fatal(err)
	}

	before := wal.DecodeFallbacks()
	rep, err := New(Options{Source: dir, Serve: followerOpts()})
	if err != nil {
		t.Fatal(err)
	}
	drainSync(t, rep)
	if got := rep.Server().StateHash(); got != want {
		t.Fatalf("follower of the edited journal at %#x, the journal as written replays to %#x", got, want)
	}
	info := rep.Replication()
	if got := info.DecodeFallbacks - before; got != uint64(len(lines)) {
		t.Fatalf("decode_fallbacks rose by %d over %d edited records", got, len(lines))
	}
	if body := do(t, rep.Handler(), "GET", "/v1/debug/replication", nil).Body.String(); !strings.Contains(body, `"decode_fallbacks":`) {
		t.Fatalf("GET /v1/debug/replication does not report decode_fallbacks: %s", body)
	}
}
