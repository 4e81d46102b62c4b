package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// frozenFed builds a federation whose shards' virtual clocks effectively
// never advance (speed ≈ 0 but timed), runs it, and returns a
// cancel-and-wait stop function.
func frozenFed(t *testing.T, opts Options) (*Federation, func() error) {
	t.Helper()
	if opts.Shard.Speed == 0 {
		opts.Shard.Speed = 1e-9
	}
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	return f, func() error {
		cancel()
		select {
		case err := <-done:
			f.Close()
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("federation did not stop")
			return nil
		}
	}
}

func doJSON(t *testing.T, h http.Handler, method, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad body %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec
}

func TestFederationRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Shards: 0, Shard: serve.Options{Procs: 8}}); err == nil {
		t.Fatal("want error for zero shards")
	}
	if _, err := New(Options{Shards: 2, Route: "nope", Shard: serve.Options{Procs: 8}}); err == nil {
		t.Fatal("want error for unknown route")
	}
}

// TestFederationSubmitLookupCancel drives the full write surface over HTTP
// against two shards: IDs are globally unique and congruent to their
// shard's class, lookups find the owning shard, cancels land there too.
func TestFederationSubmitLookupCancel(t *testing.T) {
	f, stop := frozenFed(t, Options{Shards: 2, Route: "hash", Shard: serve.Options{Procs: 8, Scheduler: "easy", Policy: "FCFS", Audit: true}})
	defer stop()
	h := f.Handler()

	seen := map[int]bool{}
	views := make([]serve.JobView, 0, 12)
	for i := 0; i < 12; i++ {
		var v serve.JobView
		rec := doJSON(t, h, "POST", "/v1/jobs", serve.SubmitRequest{Width: 1 + i%8, Runtime: 500, User: i % 5}, &v)
		if rec.Code != http.StatusCreated {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if seen[v.ID] {
			t.Fatalf("duplicate job ID %d across shards", v.ID)
		}
		seen[v.ID] = true
		views = append(views, v)
	}

	// Every ID must sit in the congruence class of the shard that owns it:
	// shard i of N only ever assigns IDs ≡ i+1 (mod N).
	for id := range seen {
		found := -1
		for i, sh := range f.Shards() {
			if _, ok := sh.Current().Jobs.Get(id); ok {
				if found >= 0 {
					t.Fatalf("job %d on two shards (%d and %d)", id, found, i)
				}
				found = i
			}
		}
		if found < 0 {
			t.Fatalf("job %d on no shard", id)
		}
		if want := found + 1; (id-want)%2 != 0 {
			t.Fatalf("job %d on shard %d: not in congruence class %d mod 2", id, found, want)
		}
	}

	// Same user, same shard: hash routing is deterministic per key.
	shardOf := func(id int) int {
		for i, sh := range f.Shards() {
			if _, ok := sh.Current().Jobs.Get(id); ok {
				return i
			}
		}
		return -1
	}
	for u := 0; u < 5; u++ {
		want := -1
		for i, v := range views {
			if i%5 != u {
				continue
			}
			got := shardOf(v.ID)
			if want == -1 {
				want = got
			} else if got != want {
				t.Fatalf("user %d split across shards %d and %d", u, want, got)
			}
		}
	}

	var v serve.JobView
	target := views[len(views)-1]
	if rec := doJSON(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", target.ID), nil, &v); rec.Code != 200 || v.ID != target.ID {
		t.Fatalf("lookup %d: %d %+v", target.ID, rec.Code, v)
	}
	if rec := doJSON(t, h, "GET", "/v1/jobs/99999", nil, nil); rec.Code != 404 {
		t.Fatalf("lookup of unknown job: %d", rec.Code)
	}

	// Cancel a queued job through the front end; the owning shard must
	// record it.
	victim := -1
	for _, view := range views {
		if view.State == "queued" {
			victim = view.ID
			break
		}
	}
	if victim < 0 {
		t.Fatal("no queued job to cancel; widen the submissions")
	}
	if rec := doJSON(t, h, "DELETE", fmt.Sprintf("/v1/jobs/%d", victim), nil, nil); rec.Code != 204 {
		t.Fatalf("cancel %d: %d", victim, rec.Code)
	}
	if rec := doJSON(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", victim), nil, &v); rec.Code != 200 || v.State != "cancelled" {
		t.Fatalf("cancelled job %d: %d %+v", victim, rec.Code, v)
	}
	if rec := doJSON(t, h, "DELETE", "/v1/jobs/99999", nil, nil); rec.Code != 404 {
		t.Fatalf("cancel of unknown job: %d", rec.Code)
	}

	// A job wider than every shard is a client error, same as a single
	// cluster of that size would give.
	if rec := doJSON(t, h, "POST", "/v1/jobs", serve.SubmitRequest{Width: 9, Runtime: 10}, nil); rec.Code != 400 {
		t.Fatalf("too-wide submit: %d", rec.Code)
	}
}

// TestFederationPreloadPartition preloads a trace through the router and
// checks conservation (every job on exactly one shard, none lost or
// duplicated) plus the ID floor: live submissions after a preload must not
// collide with any trace ID.
func TestFederationPreloadPartition(t *testing.T) {
	m, err := workload.NewSDSC(0.9)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := m.Generate(80, 7)
	if err != nil {
		t.Fatal(err)
	}
	jobs := workload.ApplyEstimates(raw, workload.Actual{}, 8)

	for _, route := range []string{"hash", "width"} {
		t.Run(route, func(t *testing.T) {
			f, err := New(Options{Shards: 3, Route: route, Shard: serve.Options{Procs: m.Procs, Scheduler: "easy", Policy: "FCFS", Speed: 1e-9}})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Preload(jobs); err != nil {
				t.Fatal(err)
			}
			counts := make([]int, 3)
			maxID := 0
			for i, sh := range f.Shards() {
				snap := sh.Current()
				counts[i] = snap.Jobs.Len()
				snap.Jobs.Range(func(id int, _ serve.JobView) bool {
					if id > maxID {
						maxID = id
					}
					return true
				})
			}
			total := counts[0] + counts[1] + counts[2]
			if total != len(jobs) {
				t.Fatalf("partition lost or duplicated jobs: %v sums to %d, want %d", counts, total, len(jobs))
			}
			h := f.Handler()
			for _, j := range jobs {
				if code, _ := body(t, h, "GET", fmt.Sprintf("/v1/jobs/%d", j.ID)); code != http.StatusOK {
					t.Fatalf("preloaded job %d not reachable through the front end", j.ID)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- f.Run(ctx) }()
			v, _, err := f.Submit(serve.SubmitRequest{Width: 1, Runtime: 60, User: 42})
			if err != nil {
				t.Fatal(err)
			}
			if v.ID <= maxID {
				t.Fatalf("live submit got ID %d inside the preloaded range (max trace ID %d)", v.ID, maxID)
			}
			cancel()
			<-done
			f.Close()
		})
	}
}

// TestFederationStatus checks the per-shard listing: one row per shard in
// shard order, capacities reported per shard.
func TestFederationStatus(t *testing.T) {
	f, stop := frozenFed(t, Options{Shards: 3, Shard: serve.Options{Procs: 16, Scheduler: "easy", Policy: "FCFS"}})
	defer stop()

	var rows []ShardStatus
	if rec := doJSON(t, f.Handler(), "GET", "/v1/shards", nil, &rows); rec.Code != 200 {
		t.Fatalf("shards: %d", rec.Code)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for i, r := range rows {
		if r.Shard != i || r.Procs != 16 || r.Scheduler == "" {
			t.Fatalf("row %d: %+v", i, r)
		}
	}

	var q serve.QueueResponse
	if rec := doJSON(t, f.Handler(), "GET", "/v1/queue", nil, &q); rec.Code != 200 {
		t.Fatalf("queue: %d", rec.Code)
	}
	if q.Procs != 48 {
		t.Fatalf("merged capacity %d, want 48", q.Procs)
	}

	// Each shard's debug stats, under the route that replaced its
	// /replication, and 404 for a shard that does not exist.
	var st serve.Stats
	if rec := doJSON(t, f.Handler(), "GET", "/v1/shards/2/stats", nil, &st); rec.Code != 200 || st.Replication.Role != "standalone" || len(st.Counters) == 0 {
		t.Fatalf("shard 2 stats: %d %+v", rec.Code, st)
	}
	for _, path := range []string{"/v1/shards/3/stats", "/v1/shards/0/replication"} {
		if rec := doJSON(t, f.Handler(), "GET", path, nil, nil); rec.Code != 404 {
			t.Fatalf("GET %s: %d, want 404", path, rec.Code)
		}
	}
}

// TestRouterHashDeterministicAndStable pins the hash ring's contract: a key
// routes identically no matter the load vector, and growing the ring moves
// only a minority of keys.
func TestRouterHashDeterministicAndStable(t *testing.T) {
	r4, _ := RouterByName("hash", 4)
	r5, _ := RouterByName("hash", 5)
	loadsA := make([]Load, 4)
	loadsB := []Load{{Busy: 9, QueuedWork: 1e6}, {}, {Busy: 3}, {QueuedWork: 5}}
	moved := 0
	for u := 0; u < 1000; u++ {
		k := Key{User: u, Width: 1, Estimate: 100}
		a, b := r4.Route(k, loadsA), r4.Route(k, loadsB)
		if a != b {
			t.Fatalf("user %d: hash placement depends on load (%d vs %d)", u, a, b)
		}
		if r4.Route(k, loadsA) != a {
			t.Fatalf("user %d: hash placement not deterministic", u)
		}
		if r5.Route(k, make([]Load, 5)) != a {
			moved++
		}
	}
	// Consistent hashing: going 4 → 5 shards should remap roughly 1/5 of
	// the keys, not reshuffle everything. Allow a generous band.
	if moved > 400 {
		t.Fatalf("adding a shard moved %d/1000 keys; ring is not consistent", moved)
	}
	if moved == 0 {
		t.Fatal("adding a shard moved no keys; new shard gets no load")
	}
}

// TestRouterWidth pins the width policy: infeasible shards are never
// chosen while a feasible one exists, the least-loaded feasible shard wins,
// and a job too wide for everyone goes to the widest shard.
func TestRouterWidth(t *testing.T) {
	r, _ := RouterByName("width", 3)
	loads := []Load{
		{Procs: 8, Busy: 0, QueuedWork: 0},
		{Procs: 32, Busy: 32, QueuedWork: 1000},
		{Procs: 32, Busy: 0, QueuedWork: 0},
	}
	if got := r.Route(Key{User: 1, Width: 16}, loads); got != 2 {
		t.Fatalf("width 16 routed to %d, want the idle 32-proc shard 2", got)
	}
	if got := r.Route(Key{User: 1, Width: 64}, loads); got != 1 {
		t.Fatalf("width 64 routed to %d, want a widest shard", got)
	}
	got := r.Route(Key{User: 1, Width: 4}, loads)
	if got == 1 {
		t.Fatalf("width 4 routed to the loaded shard 1 over idle ones")
	}
	if r.Name() != "width" {
		t.Fatalf("name %q", r.Name())
	}
}
