package serve

import (
	"encoding/json"

	"repro/internal/instr"
	"repro/internal/sched"
)

// Stats is the GET /v1/debug/stats body: how this process has behaved, as
// one document. Replication and Durability carry the state that is not a
// counter; Counters renders the server's instruments in registration order
// (instruments, below) and Replica a follower's own (internal/replica).
// OPERATIONS.md §4 explains every key. Process-local, so never in
// /metrics.
type Stats struct {
	// Scheduler is the scheduler's name, as in /v1/queue.
	Scheduler   string          `json:"scheduler"`
	Replication ReplicationInfo `json:"replication"`
	Durability  DurabilityInfo  `json:"durability"`
	Counters    json.RawMessage `json:"counters"`
	Replica     json.RawMessage `json:"replica,omitempty"`
}

// Stats reports the body of GET /v1/debug/stats. Its durability section is
// read under the server's lock (Durability).
func (s *Server) Stats() Stats {
	return Stats{
		Scheduler:   s.name,
		Replication: s.replication(),
		Durability:  s.Durability(),
		Counters:    s.ins.set.AppendJSON(nil),
	}
}

// instruments are the server's process-local counters and timings,
// registered once, in New. HTTP goroutines render them while the scheduler
// goroutine (or a follower's applier) and the /v1/wal handlers update them.
type instruments struct {
	set instr.Set
	// work is the scheduler's sched.WorkCounts as of the last
	// publication, in the order and under the keys WorkCounts.Named gives.
	work []*instr.Counter
	// fc counts forecasts by how they were computed (fcOutcome), and
	// fullForecast times the full dry-runs among them.
	fc           [numFcOutcomes]*instr.Counter
	fullForecast *instr.Histogram
	// Publication: job views re-rendered, index nodes allocated for them,
	// and publications whose queue was copied rather than appended to.
	jobsPatched, nodesCopied, queueCopies *instr.Counter
	// The replay history's size, and what a checkpoint costs under the
	// lock and on its write goroutine.
	histRecords, histBytes *instr.Counter
	ckptLoop, ckptWrite    *instr.Histogram
	// Journal shipping: resyncs served, records shipped and the bytes read
	// to ship them; commit batches that missed the ack quorum.
	resyncs, pullRecords, pullBytes *instr.Counter
	quorumDegraded, quorumRejected  *instr.Counter
	// Commit batches, those a writer ran itself (combine), and runBatch's
	// nanoseconds in each stage: the wait for a batch (summed over
	// commands), commands, commitWAL, publish, waitAckQuorum.
	batches, batchInline, batchWait, batchExec *instr.Counter
	batchCommit, batchPublish, batchQuorum     *instr.Counter
}

func (in *instruments) register() {
	st := &in.set
	st.Grow(len(sched.WorkCounts{}.Named()) + int(numFcOutcomes) + 20) // 20: those named below
	for _, c := range (sched.WorkCounts{}).Named() {
		in.work = append(in.work, st.Counter(c.Name))
	}
	in.fc = [numFcOutcomes]*instr.Counter{
		fcExtended:          st.Counter("forecast_extends"),
		fcNoPredecessor:     st.Counter("forecast_no_predecessor"),
		fcClockMoved:        st.Counter("forecast_clock_moved"),
		fcRunningChanged:    st.Counter("forecast_running_changed"),
		fcQueueNotPrefix:    st.Counter("forecast_queue_not_prefix"),
		fcResvChanged:       st.Counter("forecast_reservation_changed"),
		fcSeedConsumed:      st.Counter("forecast_seed_consumed"),
		fcArrivalBeforeTail: st.Counter("forecast_arrival_before_tail"),
		fcStaleSnapshot:     st.Counter("forecast_stale_snapshot"),
	}
	in.fullForecast = st.Histogram("forecast_full")
	in.jobsPatched, in.nodesCopied = st.Counter("jobs_patched"), st.Counter("nodes_copied")
	in.queueCopies = st.Counter("publish_queue_copies")
	in.histRecords, in.histBytes = st.Counter("history_records"), st.Counter("history_bytes")
	in.ckptLoop, in.ckptWrite = st.Histogram("checkpoint_loop"), st.Histogram("checkpoint_write")
	in.resyncs, in.pullRecords, in.pullBytes = st.Counter("resyncs"), st.Counter("pull_records"), st.Counter("pull_bytes")
	in.quorumDegraded, in.quorumRejected = st.Counter("quorum_degraded"), st.Counter("quorum_rejected")
	in.batches, in.batchInline = st.Counter("batch_count"), st.Counter("batch_inline")
	in.batchWait, in.batchExec = st.Counter("batch_wait_ns"), st.Counter("batch_exec_ns")
	in.batchCommit, in.batchPublish, in.batchQuorum = st.Counter("batch_commit_ns"), st.Counter("batch_publish_ns"), st.Counter("batch_quorum_ns")
}
