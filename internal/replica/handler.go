package replica

// The replica's HTTP surface is the daemon's own surface, served from the
// local mirror: reads delegate to the inner serve handler (hitting the
// same lock-free snapshot path a leader serves from), writes hit the inner
// follower fence and come back 421 with the leader's address. On top the
// replica adds its ?min_seq= read barrier, the replication debug and
// promote endpoints, and the schedd_replica_* gauge block appended to
// /metrics — appended, so a replica's metrics body is the leader's body
// plus a suffix, never a divergence.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
)

// barrierTimeout bounds how long a ?min_seq= read waits for replication to
// catch up before failing with 504 Gateway Timeout (the replica is a
// gateway to state that lives upstream, and upstream did not deliver it in
// time). A variable so tests can shorten it.
var barrierTimeout = 2 * time.Second

// barrierPoll paces the applied-seq checks inside the read barrier.
const barrierPoll = 2 * time.Millisecond

// Handler returns the replica's HTTP API. After promotion it delegates to
// the promoted server wholesale (except /v1/debug/replication, which keeps
// reporting the takeover).
func (r *Replica) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodGet && req.URL.Path == "/v1/debug/replication" {
			serve.WriteJSON(w, http.StatusOK, r.Replication())
			return
		}
		n := r.node.Load()
		if r.promoted.Load() {
			n.h.ServeHTTP(w, req)
			return
		}
		switch {
		case req.Method == http.MethodPost && req.URL.Path == "/v1/promote":
			if err := r.Promote(); err != nil {
				serve.WriteJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
				return
			}
			serve.WriteJSON(w, http.StatusOK, r.Replication())
			return
		case req.Method == http.MethodGet && req.URL.Path == "/metrics":
			n.h.ServeHTTP(w, req)
			// A federation proxying reads here on a client's behalf wants
			// the leader-shaped body; the replica gauge suffix is for
			// clients that addressed this replica directly.
			if req.Header.Get("X-Schedd-Fed-Proxy") == "" {
				r.writeReplicaMetrics(w)
			}
			return
		}
		if req.Method == http.MethodGet {
			if ms := req.URL.Query().Get("min_seq"); ms != "" {
				min, err := strconv.ParseUint(ms, 10, 64)
				if err != nil {
					serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad min_seq"})
					return
				}
				if !r.waitApplied(min) {
					serve.WriteJSON(w, http.StatusGatewayTimeout, map[string]string{"error": fmt.Sprintf(
						"replica: applied seq %d has not reached min_seq %d within %s", r.applied.Load(), min, barrierTimeout)})
					return
				}
			}
		}
		n.h.ServeHTTP(w, req)
	})
}

// waitApplied blocks until the replica has applied through min (the
// read-your-writes barrier), or gives up after barrierTimeout.
func (r *Replica) waitApplied(min uint64) bool {
	deadline := time.Now().Add(barrierTimeout)
	for {
		if r.applied.Load() >= min || r.promoted.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(barrierPoll)
	}
}

// writeReplicaMetrics appends the replication gauges to a /metrics body.
func (r *Replica) writeReplicaMetrics(w http.ResponseWriter) {
	info := r.Replication()
	fmt.Fprintf(w, "# HELP schedd_replica_applied_seq Last journal sequence applied by this replica.\n")
	fmt.Fprintf(w, "# TYPE schedd_replica_applied_seq gauge\n")
	fmt.Fprintf(w, "schedd_replica_applied_seq %d\n", info.AppliedSeq)
	fmt.Fprintf(w, "# HELP schedd_replica_leader_seq Leader's last durable journal sequence, as last observed.\n")
	fmt.Fprintf(w, "# TYPE schedd_replica_leader_seq gauge\n")
	fmt.Fprintf(w, "schedd_replica_leader_seq %d\n", info.LeaderSeq)
	fmt.Fprintf(w, "# HELP schedd_replica_lag_ops Journal records the replica is behind the leader.\n")
	fmt.Fprintf(w, "# TYPE schedd_replica_lag_ops gauge\n")
	fmt.Fprintf(w, "schedd_replica_lag_ops %d\n", info.LagOps)
	fmt.Fprintf(w, "# HELP schedd_replica_lag_virtual_seconds Virtual time the replica is behind the leader.\n")
	fmt.Fprintf(w, "# TYPE schedd_replica_lag_virtual_seconds gauge\n")
	fmt.Fprintf(w, "schedd_replica_lag_virtual_seconds %d\n", info.LagVirtual)
	fmt.Fprintf(w, "# HELP schedd_replica_resyncs_total Full-checkpoint resyncs this replica was forced into.\n")
	fmt.Fprintf(w, "# TYPE schedd_replica_resyncs_total counter\n")
	fmt.Fprintf(w, "schedd_replica_resyncs_total %d\n", info.Resyncs)
	fmt.Fprintf(w, "# HELP schedd_replica_pull_records_total Journal records this replica has pulled.\n")
	fmt.Fprintf(w, "# TYPE schedd_replica_pull_records_total counter\n")
	fmt.Fprintf(w, "schedd_replica_pull_records_total %d\n", info.PullRecords)
	fmt.Fprintf(w, "# HELP schedd_replica_pull_bytes_total Bytes read to pull them; far above 60 a record means the journal is being re-read.\n")
	fmt.Fprintf(w, "# TYPE schedd_replica_pull_bytes_total counter\n")
	fmt.Fprintf(w, "schedd_replica_pull_bytes_total %d\n", info.PullBytes)
}
