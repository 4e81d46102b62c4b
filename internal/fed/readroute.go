package fed

// Replica-aware read routing. When Options.ReadRoute is "replica", the
// federation spreads GET traffic across each shard leader's registered
// followers instead of rendering every read from the leader's snapshot:
// a per-shard ReadBalancer consumes the leader's lock-free follower views
// (registration id, advertised read URL, durably-acked journal seq, last
// poll time) and round-robins eligible followers, proxying the whole
// request to the chosen follower's own HTTP surface. A follower is
// eligible only while it advertises a read address, its registration is
// TTL-live, and its replication lag (leader durable seq minus acked seq)
// is within DefaultMaxLagOps; crossing the bound ejects it from rotation
// and catching back up readmits it, with both transitions counted for the
// operator surface. Barrier reads (?min_seq=N) additionally pin the pick
// to a follower that has acked ≥ N — or to the leader, which is always
// its own authority — so replica routing never weakens read-your-writes.
// Every read endpoint falls back to the leader's local rendering when no
// follower qualifies or the proxy round-trip fails, so the worst case of
// replica routing is exactly leader-only service. Under leader routing
// there are no balancers, and the same handlers render every read on the
// leaders (Federation.pick).

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// DefaultMaxLagOps is the follower staleness bound of replica read
// routing: followers more than this many journal records behind the
// leader's durable position are ejected from read rotation until they
// catch back up.
const DefaultMaxLagOps = 1024

// proxyTimeout bounds one proxied read round-trip to a follower. A
// follower that cannot answer within it costs the client one fallback to
// the leader, never an error.
const proxyTimeout = 5 * time.Second

// replicatedShard is the slice of the shard surface read routing needs:
// *serve.Server in production, a fake with settable views in the balancer
// test.
type replicatedShard interface {
	// FollowerViews returns the shard leader's registered followers as an
	// immutable, ID-sorted slice (lock-free snapshot).
	FollowerViews() []serve.FollowerView
	// DurableSeq returns the leader's last durable journal sequence.
	DurableSeq() uint64
}

// ReadBalancer routes one shard's reads across that shard's registered
// followers. All methods are safe for concurrent use from HTTP goroutines;
// the hot path (Pick) loads the leader's published follower views and
// never takes the shard's locks.
type ReadBalancer struct {
	shard  replicatedShard
	maxLag uint64
	rr     atomic.Uint64 // round-robin cursor across eligible followers

	proxied   atomic.Int64 // reads served by a follower
	fallbacks atomic.Int64 // proxy attempts that fell back to the leader

	mu           sync.Mutex
	inRotation   map[string]bool // follower ID → last observed eligibility
	ejections    atomic.Int64    // eligible → ineligible transitions observed
	readmissions atomic.Int64    // ineligible → eligible transitions observed
}

// eligibleAt reports whether one follower view may serve plain (non-barrier)
// reads at the given leader position and wall time: it must advertise a
// read address, be TTL-live, and lag the leader by at most maxLag records.
func eligibleAt(v serve.FollowerView, leaderSeq uint64, now time.Time, maxLag uint64) bool {
	if v.Addr == "" || now.Sub(v.LastSeen) > serve.FollowerTTL {
		return false
	}
	var lag uint64
	if leaderSeq > v.Acked {
		lag = leaderSeq - v.Acked
	}
	return lag <= maxLag
}

// pickFrom is the pure selection function behind Pick, fuzzed directly:
// given the follower views, the leader's durable seq, the wall clock, a
// barrier floor (0 for plain reads), a round-robin cursor, and the lag
// bound, it returns the index of the follower to route to, or -1 for
// "serve from the leader". It is deterministic in its arguments and never
// returns a follower that is lag-ejected, TTL-expired, unadvertised, or
// behind the barrier floor.
func pickFrom(views []serve.FollowerView, leaderSeq uint64, now time.Time, minSeq, rr, maxLag uint64) int {
	eligible := make([]int, 0, len(views))
	for i, v := range views {
		if !eligibleAt(v, leaderSeq, now, maxLag) {
			continue
		}
		if v.Acked < minSeq {
			continue
		}
		eligible = append(eligible, i)
	}
	if len(eligible) == 0 {
		return -1
	}
	return eligible[rr%uint64(len(eligible))]
}

// Pick chooses the follower to serve the next read, or reports ok=false
// when the read should render on the leader (no eligible follower, or none
// has acked minSeq). It also advances the shard's
// ejection/readmission accounting from the freshly observed views.
func (b *ReadBalancer) Pick(minSeq uint64) (addr string, ok bool) {
	views := b.shard.FollowerViews()
	leaderSeq := b.shard.DurableSeq()
	now := time.Now()
	b.observe(views, leaderSeq, now)
	i := pickFrom(views, leaderSeq, now, minSeq, b.rr.Add(1)-1, b.maxLag)
	if i < 0 {
		return "", false
	}
	return views[i].Addr, true
}

// observe diffs the current views against the last observed rotation state
// and counts ejections (a follower that was serving reads crossed the lag
// bound, expired, or dropped its address) and readmissions (it qualified
// again). Followers that vanish from the registry entirely count as
// ejected once.
func (b *ReadBalancer) observe(views []serve.FollowerView, leaderSeq uint64, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := make(map[string]bool, len(views))
	for _, v := range views {
		el := eligibleAt(v, leaderSeq, now, b.maxLag)
		seen[v.ID] = true
		was, known := b.inRotation[v.ID]
		switch {
		case el && (!known || !was):
			if known {
				b.readmissions.Add(1)
			}
			b.inRotation[v.ID] = true
		case !el && known && was:
			b.ejections.Add(1)
			b.inRotation[v.ID] = false
		case !known:
			b.inRotation[v.ID] = false
		}
	}
	for id, was := range b.inRotation {
		if !seen[id] {
			if was {
				b.ejections.Add(1)
			}
			delete(b.inRotation, id)
		}
	}
}

// FollowerRouteStatus is one follower's row in the routing debug payload.
type FollowerRouteStatus struct {
	// ID is the follower's registration name.
	ID string `json:"id"`
	// Addr is the advertised read URL (empty = replicates, serves nothing).
	Addr string `json:"addr,omitempty"`
	// AckedSeq is the last journal seq the follower durably applied.
	AckedSeq uint64 `json:"acked_seq"`
	// LagOps is the leader's durable seq minus AckedSeq (0 if caught up).
	LagOps uint64 `json:"lag_ops"`
	// AgeSec is the wall-clock age of the follower's latest poll.
	AgeSec float64 `json:"age_sec"`
	// Eligible reports whether the follower is currently in read rotation.
	Eligible bool `json:"eligible"`
}

// RouteStatus is one shard's row of GET /v1/debug/routing: the balancer's
// live view of its followers plus the routing counters the failure drills
// assert on.
type RouteStatus struct {
	// Shard is the shard index the row describes.
	Shard int `json:"shard"`
	// LeaderSeq is the shard leader's last durable journal seq.
	LeaderSeq uint64 `json:"leader_seq"`
	// MaxLagOps is the staleness bound this balancer ejects at.
	MaxLagOps uint64 `json:"max_lag_ops"`
	// Proxied counts reads served by a follower.
	Proxied int64 `json:"proxied"`
	// Fallbacks counts proxy attempts that fell back to the leader.
	Fallbacks int64 `json:"fallbacks"`
	// Ejections counts eligible→ineligible transitions observed.
	Ejections int64 `json:"ejections"`
	// Readmissions counts ineligible→eligible transitions observed.
	Readmissions int64 `json:"readmissions"`
	// Followers lists the shard's registered followers in ID order.
	Followers []FollowerRouteStatus `json:"followers,omitempty"`
}

// Status renders the balancer's debug row.
func (b *ReadBalancer) Status(shard int) RouteStatus {
	views := b.shard.FollowerViews()
	leaderSeq := b.shard.DurableSeq()
	now := time.Now()
	b.observe(views, leaderSeq, now)
	st := RouteStatus{
		Shard:        shard,
		LeaderSeq:    leaderSeq,
		MaxLagOps:    b.maxLag,
		Proxied:      b.proxied.Load(),
		Fallbacks:    b.fallbacks.Load(),
		Ejections:    b.ejections.Load(),
		Readmissions: b.readmissions.Load(),
	}
	for _, v := range views {
		var lag uint64
		if leaderSeq > v.Acked {
			lag = leaderSeq - v.Acked
		}
		st.Followers = append(st.Followers, FollowerRouteStatus{
			ID:       v.ID,
			Addr:     v.Addr,
			AckedSeq: v.Acked,
			LagOps:   lag,
			AgeSec:   now.Sub(v.LastSeen).Seconds(),
			Eligible: eligibleAt(v, leaderSeq, now, b.maxLag),
		})
	}
	return st
}

// RouteStatus reports every shard balancer's state in shard order, nil
// when read routing is "leader".
func (f *Federation) RouteStatus() []RouteStatus {
	if f.balancers == nil {
		return nil
	}
	out := make([]RouteStatus, len(f.balancers))
	for i, b := range f.balancers {
		out[i] = b.Status(i)
	}
	return out
}

// fedProxyHeader marks a proxied read so the follower serves the
// leader-shaped body (in particular, /metrics without the replica gauge
// suffix — the federation is asking on behalf of a client that addressed
// the federation, not the replica).
const fedProxyHeader = "X-Schedd-Fed-Proxy"

// proxyRead forwards the request to one follower and relays the response
// verbatim (status, content type, X-Schedd-* headers, body). It reports
// whether the follower answered at all; a transport failure leaves the
// ResponseWriter untouched so the caller can fall back to the leader.
// HTTP-level errors from the follower (404, 504 …) are relayed, not
// retried: at equal applied seq the follower's error body is the body the
// leader would have produced, and a barrier 504 is a real answer.
func (b *ReadBalancer) proxyRead(w http.ResponseWriter, r *http.Request, addr string) bool {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, addr+r.URL.RequestURI(), nil)
	if err != nil {
		b.fallbacks.Add(1)
		return false
	}
	req.Header.Set(fedProxyHeader, "1")
	resp, err := proxyClient.Do(req)
	if err != nil {
		b.fallbacks.Add(1)
		return false
	}
	defer resp.Body.Close()
	for _, h := range proxiedHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	b.proxied.Add(1)
	return true
}

// fetchJSON pulls one JSON document from a follower for a merged render,
// counting it as a proxied read on success and a fallback on failure (the
// caller then renders that shard's part from the leader).
func (b *ReadBalancer) fetchJSON(url string, v any) bool {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		b.fallbacks.Add(1)
		return false
	}
	req.Header.Set(fedProxyHeader, "1")
	resp, err := proxyClient.Do(req)
	if err != nil {
		b.fallbacks.Add(1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.fallbacks.Add(1)
		return false
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		b.fallbacks.Add(1)
		return false
	}
	b.proxied.Add(1)
	return true
}

// RoutingInfo is the GET /v1/debug/routing payload.
type RoutingInfo struct {
	// ReadRoute is the active policy, "leader" or "replica".
	ReadRoute string `json:"read_route"`
	// Shards holds one balancer row per shard under replica routing.
	Shards []RouteStatus `json:"shards,omitempty"`
}

// Routing reports the federation's read-routing state.
func (f *Federation) Routing() RoutingInfo {
	mode := "leader"
	if f.balancers != nil {
		mode = "replica"
	}
	return RoutingInfo{ReadRoute: mode, Shards: f.RouteStatus()}
}

// proxiedHeaders is the header allowlist relayed from follower responses:
// the content type plus the replication-position headers clients chain
// into ?min_seq= barriers.
var proxiedHeaders = []string{"Content-Type", "X-Schedd-Seq", "X-Schedd-Term", "X-Schedd-Now"}

// proxyClient is the shared client for follower read proxying.
var proxyClient = &http.Client{Timeout: proxyTimeout}
