package fed

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/serve"
)

// Handler returns the federation's HTTP API — the same surface a single
// daemon serves, plus the per-shard status listing:
//
//	POST   /v1/jobs       route to a shard, submit  → 201 JobView
//	GET    /v1/jobs/{id}  status + forecast         → 200 JobView
//	DELETE /v1/jobs/{id}  cancel on the owning shard → 204
//	GET    /v1/queue      merged queue listing       → 200 QueueResponse
//	GET    /healthz       merged liveness            → 200 {"status":"ok"}
//	GET    /metrics       Prometheus text format, merged
//	GET    /v1/shards     per-shard state            → 200 [ShardStatus]
//	GET    /v1/shards/{shard}/wal  that shard's journal stream (replication)
//	GET    /v1/shards/{shard}/stats  that shard's GET /v1/debug/stats → 200 serve.Stats
//	GET    /v1/debug/routing  read-routing state     → 200 RoutingInfo
//
// No read ever enters a shard's scheduler mailbox. Each read endpoint has
// one handler, which asks pick where each shard's part renders: under
// Options.ReadRoute "replica" on a lag-eligible follower when one exists
// (proxied, or fetched and folded), with ?min_seq= barrier reads pinned to
// a caught-up member; on the shard leader's published snapshot otherwise,
// and always under "leader" routing, which also ignores ?min_seq= as a
// bare daemon does.
func (f *Federation) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", f.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", f.handleCancel)
	mux.HandleFunc("GET /v1/queue", f.handleQueue)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, f.Status())
	})
	// A follower of shard i tails GET /v1/shards/i/wal exactly as it would a
	// standalone leader's /v1/wal; /stats is the shard leader's
	// /v1/debug/stats (followers, ack-quorum counters), what the quorum
	// drills assert on.
	mux.HandleFunc("GET /v1/shards/{shard}/wal", func(w http.ResponseWriter, r *http.Request) {
		if sh, ok := f.shardAt(w, r); ok {
			sh.ServeWAL(w, r)
		}
	})
	mux.HandleFunc("GET /v1/shards/{shard}/stats", func(w http.ResponseWriter, r *http.Request) {
		if sh, ok := f.shardAt(w, r); ok {
			serve.WriteJSON(w, http.StatusOK, sh.Stats())
		}
	})
	mux.HandleFunc("GET /v1/debug/routing", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, f.Routing())
	})
	return mux
}

// shardAt resolves the {shard} path value, answering 404 when it names no
// shard.
func (f *Federation) shardAt(w http.ResponseWriter, r *http.Request) (*serve.Server, bool) {
	i, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || i < 0 || i >= len(f.shards) {
		serve.WriteJSON(w, http.StatusNotFound, serve.ErrorResponse{Error: "unknown shard " + r.PathValue("shard")})
		return nil, false
	}
	return f.shards[i], true
}

func (f *Federation) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := serve.DecodeSubmit(w, r)
	if !ok {
		return
	}
	v, sh, err := f.Submit(req)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	writeSeqHeader(w, sh)
	serve.WriteJSON(w, http.StatusCreated, v)
}

func (f *Federation) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "bad job id"})
		return
	}
	sh, err := f.cancel(id)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	writeSeqHeader(w, sh)
	w.WriteHeader(http.StatusNoContent)
}

// writeSeqHeader mirrors the standalone daemon's header of the same name:
// a successful write response names the owning shard's last durable seq —
// at or past the write's own, since the shard acks after durability — so
// the client can replay it as a ?min_seq= read barrier (on the front end
// or directly on a follower). In-memory shards have no seq and stamp
// nothing, matching a journal-less daemon.
func writeSeqHeader(w http.ResponseWriter, sh *serve.Server) {
	if seq := sh.DurableSeq(); seq > 0 {
		w.Header().Set("X-Schedd-Seq", strconv.FormatUint(seq, 10))
	}
}

// handleStatus serves one job from its owning shard: proxied to one of that
// shard's followers when pick finds one (barrier-pinned when ?min_seq= is
// set), rendered from the leader's snapshot otherwise.
func (f *Federation) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "bad job id"})
		return
	}
	min, ok := f.minSeq(w, r)
	if !ok {
		return
	}
	i, found := f.owner(id)
	switch {
	case !found:
		// No shard owns the ID. The leaders are jointly authoritative for
		// "unknown job" — unless the barrier names a future sequence none
		// of them has journaled yet.
		if max := f.maxLeaderSeq(); min > max {
			f.writeBarrierTimeout(w, max, min)
			return
		}
	case f.proxied(w, r, i, min):
		return
	default:
		if v, ok := f.shards[i].Lookup(id); ok {
			serve.WriteJSON(w, http.StatusOK, v)
			return
		}
	}
	serve.WriteJSON(w, http.StatusNotFound, serve.ErrorResponse{Error: "unknown job " + strconv.Itoa(id)})
}

// handleQueue serves the queue listing. A single-shard federation proxies
// the whole request to one follower when it can (byte-identity with the
// leader render is pinned by the equivalence suite); a multi-shard one
// folds per-shard listings, each fetched from a follower when one is
// eligible and rendered on the leader otherwise. QueueResponse is
// JSON-roundtrip-lossless, so a folded body is byte-identical to an
// all-leader merge at equal applied state.
func (f *Federation) handleQueue(w http.ResponseWriter, r *http.Request) {
	min, ok := f.minSeq(w, r)
	if !ok || len(f.shards) == 1 && f.proxied(w, r, 0, min) {
		return
	}
	serve.WriteJSON(w, http.StatusOK, f.queue(min))
}

// handleHealthz serves liveness with the queue's single-shard proxy /
// multi-shard fold split: Version and Pending summed, Now the furthest
// shard's clock (the shard's own at N = 1), Draining if any shard is.
func (f *Federation) handleHealthz(w http.ResponseWriter, r *http.Request) {
	min, ok := f.minSeq(w, r)
	if !ok || len(f.shards) == 1 && f.proxied(w, r, 0, min) {
		return
	}
	out := serve.HealthResponse{Status: "ok"}
	for i, sh := range f.shards {
		var hr serve.HealthResponse
		if len(f.shards) == 1 || !f.fetched(i, min, "/healthz", &hr) {
			snap := sh.Current()
			hr = serve.HealthResponse{Now: snap.Now, Pending: snap.Pending, Version: snap.Version, Draining: snap.Draining}
		}
		out.Version += hr.Version
		if i == 0 || hr.Now > out.Now {
			out.Now = hr.Now
		}
		out.Pending += hr.Pending
		out.Draining = out.Draining || hr.Draining
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

// handleMetrics serves /metrics. Only a single-shard federation proxies it
// to a follower (the proxy header makes the replica serve the leader-shaped
// body, without its own gauge suffix). A merged /metrics renders from the
// leaders' raw snapshot integrals — busy areas and per-category slowdown
// sums the Prometheus text format does not carry — so it cannot be folded
// from follower bodies and stays leader-rendered (see DESIGN.md §14).
func (f *Federation) handleMetrics(w http.ResponseWriter, r *http.Request) {
	min, ok := f.minSeq(w, r)
	if !ok || len(f.shards) == 1 && f.proxied(w, r, 0, min) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	serve.WriteMetrics(w, f.MergedSnapshot())
}

// minSeq parses the ?min_seq= read-barrier floor, answering 400 (and
// returning ok=false) on a malformed value. Absent means 0: no barrier.
// Leader routing ignores the parameter, as a bare daemon does.
func (f *Federation) minSeq(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	if f.balancers == nil {
		return 0, true
	}
	ms := r.URL.Query().Get("min_seq")
	if ms == "" {
		return 0, true
	}
	min, err := strconv.ParseUint(ms, 10, 64)
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "bad min_seq"})
		return 0, false
	}
	return min, true
}

// pick chooses the follower that serves shard i's part of a read at
// barrier floor min, or answers ok=false for "render on the leader" —
// always so under leader routing, which has no balancers.
func (f *Federation) pick(i int, min uint64) (addr string, ok bool) {
	if f.balancers == nil {
		return "", false
	}
	return f.balancers[i].Pick(min)
}

// proxied answers a read that shard i alone serves without touching the
// leader's snapshot when it can: by proxying it to a picked follower, or
// with a 504 when the barrier is past even the leader's durable seq. It
// reports false when the caller must render the read on the leader — no
// follower qualified, or the proxy round-trip failed.
func (f *Federation) proxied(w http.ResponseWriter, r *http.Request, i int, min uint64) bool {
	if addr, ok := f.pick(i, min); ok && f.balancers[i].proxyRead(w, r, addr) {
		return true
	}
	if seq := f.shards[i].DurableSeq(); min > seq {
		f.writeBarrierTimeout(w, seq, min)
		return true
	}
	return false
}

// fetched decodes shard i's part of a merged read from a picked follower's
// path into v. It reports false when the part must render on the leader;
// merged reads never 504 on the barrier, because the leader fallback is
// its own authority and min_seq on a merged endpoint is a
// follower-selection floor, not a cross-shard ordering claim (sequence
// spaces are per shard — see OPERATIONS.md).
func (f *Federation) fetched(i int, min uint64, path string, v any) bool {
	addr, ok := f.pick(i, min)
	return ok && f.balancers[i].fetchJSON(addr+path, v)
}

// maxLeaderSeq is the highest durable position across the shards, the
// barrier authority for reads that resolve to no single shard (an unknown
// job ID). In-memory shards journal nothing and report 0, so every
// positive barrier on an in-memory federation times out by design.
func (f *Federation) maxLeaderSeq() uint64 {
	var max uint64
	for _, sh := range f.shards {
		if s := sh.DurableSeq(); s > max {
			max = s
		}
	}
	return max
}

// writeBarrierTimeout is the federation's 504 Gateway Timeout: the barrier
// asked for state no eligible follower has applied and the leader itself
// has not journaled — the requested sequence does not exist on any member
// this front end can reach.
func (f *Federation) writeBarrierTimeout(w http.ResponseWriter, leaderSeq, min uint64) {
	serve.WriteJSON(w, http.StatusGatewayTimeout, serve.ErrorResponse{Error: fmt.Sprintf(
		"fed: no member has applied min_seq %d (leader durable seq %d)", min, leaderSeq)})
}
