package replica

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/instr"
	"repro/internal/serve"
)

// TestStatsBodyEveryRole holds GET /v1/debug/stats on a durable leader, a
// follower and a promoted follower (as the POST /v1/promote reply) to every
// field of the four debug bodies it replaced: /v1/debug/durability,
// /v1/debug/replication, /v1/debug/forecast and /v1/debug/passes. Two exact
// duplicates are left out: decode_fallbacks, which two of them carried, and
// dry_runs, which is forecast_extends plus every forecast fallback.
func TestStatsBodyEveryRole(t *testing.T) {
	every := []string{
		// passes: scheduler, skipped, settled, full
		"scheduler", "counters.passes_skipped", "counters.passes_settled", "counters.passes_full",
		// forecast: extends, fallbacks by reason, full, full_us, full_max_us
		"counters.forecast_extends", "counters.forecast_no_predecessor", "counters.forecast_clock_moved",
		"counters.forecast_running_changed", "counters.forecast_queue_not_prefix", "counters.forecast_reservation_changed",
		"counters.forecast_seed_consumed", "counters.forecast_arrival_before_tail", "counters.forecast_stale_snapshot",
		"counters.forecast_full.count", "counters.forecast_full.sum_us", "counters.forecast_full.max_us",
		// replication: role, term, lag_ops, lag_virtual_time, resyncs,
		// pull_records, pull_bytes, quorum_degraded, quorum_rejected
		"replication.role", "replication.term", "replication.lag_ops", "replication.lag_virtual_time",
		"counters.resyncs", "counters.pull_records", "counters.pull_bytes",
		"counters.quorum_degraded", "counters.quorum_rejected",
		// durability: everything but dir, checkpoint_age_sec and recovery,
		// which only a journal has; the checkpoint timings are histograms
		"durability.enabled", "durability.fsync", "durability.snapshot_version", "durability.sim_now",
		"durability.state_hash", "durability.seq", "durability.checkpoint_seq", "durability.tail_records",
		"durability.checkpoint_in_flight", "durability.decode_fallbacks",
		"counters.checkpoint_loop.count", "counters.checkpoint_loop.sum_us", "counters.checkpoint_loop.max_us",
		"counters.checkpoint_write.count", "counters.checkpoint_write.sum_us", "counters.checkpoint_write.max_us",
		"counters.history_records", "counters.history_bytes", "counters.jobs_patched", "counters.nodes_copied",
		"counters.publish_queue_copies",
		// write batches: all of them, and those a writer ran itself
		"counters.batch_count", "counters.batch_inline",
	}
	journal := []string{"durability.dir", "durability.checkpoint_age_sec", "replication.seq"}
	follower := []string{"replication.source", "replication.applied_seq", "replication.leader_seq",
		"replica.resyncs", "replica.pull_records", "replica.pull_bytes"}
	check := func(role string, body []byte, want ...[]string) map[string]string {
		t.Helper()
		flat := map[string]string{}
		if err := instr.Walk(body, func(k, v string) { flat[k] = v }); err != nil {
			t.Fatalf("%s: %v", role, err)
		}
		for _, keys := range want {
			for _, k := range keys {
				if _, ok := flat[k]; !ok {
					t.Errorf("%s: no %s in %s", role, k, body)
				}
			}
		}
		return flat
	}

	// A leader that checkpoints every 4 records and acknowledges on its own
	// commit after a millisecond without a follower's confirmation.
	opts := leaderOpts(t.TempDir())
	opts.Durability.CheckpointOps = 4
	opts.Durability.AckQuorum, opts.Durability.QuorumDegrade, opts.Durability.QuorumTimeout = 1, true, time.Millisecond
	leader, stop := startLeader(t, opts)
	defer leader.Close()
	lh := leader.Handler()
	ts := httptest.NewServer(lh)
	defer ts.Close()
	rep, err := New(Options{Source: ts.URL, ID: "f1", Serve: followerOpts(), PromoteDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for i := 0; i < 10; i++ {
		submitOne(t, lh, 8, 100) // the first runs, the rest queue with a forecast
	}
	// The last write's checkpoint is captured after its acknowledgement;
	// one that lands between the follower's first two pulls prunes the tail
	// it resynced to and forces a second resync, so let it land first.
	for d, deadline := leader.Durability(), time.Now().Add(5*time.Second); d.CheckpointInFlight || d.TailRecords >= 4; d = leader.Durability() {
		if time.Now().After(deadline) {
			t.Fatalf("the leader's checkpoint never landed: %+v", d)
		}
		time.Sleep(time.Millisecond)
	}
	drainSync(t, rep)
	submitOne(t, lh, 8, 100)
	drainSync(t, rep) // registers the follower's position past a checkpoint

	flat := check("leader", do(t, lh, "GET", "/v1/debug/stats", nil).Body.Bytes(), every, journal,
		[]string{"durability.recovery.checkpoint_seq", "durability.recovery.tail_records", "replication.ack_quorum",
			"replication.retain_floor", "replication.followers.0.id", "replication.followers.0.acked_seq",
			"replication.followers.0.age_sec"})
	if flat["replication.role"] != "leader" || flat["counters.quorum_degraded"] == "0" || flat["counters.checkpoint_write.count"] == "0" {
		t.Errorf("leader: role %s, %s degraded acks, %s checkpoint writes", flat["replication.role"],
			flat["counters.quorum_degraded"], flat["counters.checkpoint_write.count"])
	}
	// Its first pull found the journal checkpointed past it.
	flat = check("follower", do(t, rep.Handler(), "GET", "/v1/debug/stats", nil).Body.Bytes(), every, follower)
	if flat["replication.role"] != "follower" || flat["replica.resyncs"] != "1" {
		t.Errorf("follower: role %s, %s resyncs", flat["replication.role"], flat["replica.resyncs"])
	}

	if err := stop(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	rec := do(t, rep.Handler(), "POST", "/v1/promote", nil)
	var st serve.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != 200 || !st.Replication.Promoted || st.Replication.Role != "leader" {
		t.Fatalf("promote: %d %s", rec.Code, rec.Body.String())
	}
	check("promoted follower", rec.Body.Bytes(), every, journal, follower[3:])
	check("promoted follower", do(t, rep.Handler(), "GET", "/v1/debug/stats", nil).Body.Bytes(), every, journal, follower[3:])
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("promoted run: %v", err)
	}
}
