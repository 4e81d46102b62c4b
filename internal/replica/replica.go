// Package replica runs a follower of one schedd leader: it replays the
// leader's write-ahead journal — read straight from a shared journal
// directory, or streamed over the leader's GET /v1/wal endpoint — into its
// own serve.Server and publishes snapshots, so the daemon's entire
// lock-free read surface (/v1/queue, /v1/jobs/{id}, /healthz, /metrics,
// memoized forecasts) serves from the replica exactly as it would from the
// leader. The follower applies the same bytes the leader committed through
// the same deterministic replay path recovery uses, so at equal applied
// sequence the two processes hold byte-identical state (equality of
// sim.Session.StateHash is the enforced invariant).
//
// A follower is always some operations behind — replication is
// asynchronous — and says so: applied/leader sequence, op lag, and
// virtual-time lag are published on GET /v1/debug/replication and as
// schedd_replica_* gauges. Clients that need read-your-writes pass the
// X-Schedd-Seq a leader write returned back as ?min_seq=; the follower
// holds the read until it has applied that far (or answers 504 when it
// cannot within the barrier timeout).
//
// When the leader dies, a follower can take over: Promote (operator-driven
// via POST /v1/promote or schedctl promote, or automatic after
// Options.AutoPromote consecutive failed leader health probes) finishes
// replaying the journal tail, fences the lineage — the journal directory's
// flock refuses a promotion while any leader still owns it, and a term
// record marks the succession for everyone replaying later — and lifts the
// write fence. No write the old leader acknowledged is lost: acknowledged
// means durable in the journal, and promotion replays the journal to its
// end before accepting new writes.
package replica

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/job"
	"repro/internal/serve"
	"repro/internal/wal"
)

// logf reports replication events worth an operator's attention. Tests may
// silence it.
var logf = log.New(os.Stderr, "", log.LstdFlags).Printf

// Options configure a Replica.
type Options struct {
	// Source is the leader to follow: an http(s):// base URL (the leader's
	// API address, or a federation shard's .../v1/shards/N prefix) or a
	// journal directory path on shared storage.
	Source string
	// Serve configures the local mirror; Procs/Scheduler/Policy/Audit and
	// the ID class must match the leader's, exactly as a restart of the
	// leader itself would (the replayed checkpoint cross-checks them).
	Serve serve.Options
	// ID names this follower in the leader's registry; followers the leader
	// can name hold the pruning retention floor at their applied position.
	// Defaults to "follower".
	ID string
	// Advertise is the read URL this follower registers with the leader
	// (HTTP sources only — it rides the /v1/wal pull as &addr=). A leader
	// that knows a follower's read address can hand it to the federation
	// read balancer, which routes eligible reads there automatically. Empty
	// means the follower replicates without advertising a read endpoint.
	Advertise string
	// Wait is the long-poll duration passed on replication pulls (HTTP
	// sources only): a caught-up pull parks on the leader until new records
	// land or Wait expires, instead of returning empty and sleeping a full
	// Poll. This is what keeps follower lag — and therefore quorum-ack
	// latency — at a round-trip rather than a poll interval. 0 disables
	// long-polling (every pull returns immediately).
	Wait time.Duration
	// PromoteDir is the journal directory to own on promotion: the leader's
	// own directory for a shared-storage takeover (defaults to Source when
	// Source is a directory), or a fresh directory seeded from the
	// follower's replicated history. Empty with an HTTP source promotes
	// in-memory only.
	PromoteDir string
	// Fsync applies to the journal opened at promotion.
	Fsync bool
	// Poll is the replication pull interval. Defaults to 25ms.
	Poll time.Duration
	// MaxBatch bounds records applied per pull. Defaults to 1024.
	MaxBatch int
	// HealthURL is the leader liveness probe base URL (its /healthz is
	// probed). Defaults to Source when Source is an HTTP URL.
	HealthURL string
	// AutoPromote, when > 0, promotes automatically after this many
	// consecutive failed leader health probes. 0 means never: promotion is
	// operator-driven only.
	AutoPromote int
}

// node is the replica's current local mirror. Replaced wholesale on a full
// resync (the one case where incremental replay cannot continue), so
// readers always see either the old consistent state or the new one.
type node struct {
	srv *serve.Server
	h   http.Handler
}

// Replica follows one leader.
type Replica struct {
	opts Options
	src  source

	// mu serializes the applier side: Sync, resync, and promotion. The read
	// path never takes it.
	mu   sync.Mutex
	node atomic.Pointer[node]

	applied   atomic.Uint64
	leaderSeq atomic.Uint64
	leaderNow atomic.Int64
	resyncs   atomic.Int64
	promoted  atomic.Bool

	// pullRecords / pullBytes total the records pulled and the bytes read
	// to get them. Process-local, so they live on the replication debug
	// endpoint and in the /metrics suffix, not in the mirrored body.
	pullRecords atomic.Int64
	pullBytes   atomic.Int64
}

// New builds a follower of opts.Source and its empty local mirror; the
// first Sync (or Run tick) performs the initial catch-up.
func New(opts Options) (*Replica, error) {
	if opts.Source == "" {
		return nil, fmt.Errorf("replica: no source")
	}
	if opts.ID == "" {
		opts.ID = "follower"
	}
	if opts.Poll <= 0 {
		opts.Poll = 25 * time.Millisecond
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 1024
	}
	if opts.Serve.Follower == "" {
		opts.Serve.Follower = opts.Source
	}
	httpSrc := strings.HasPrefix(opts.Source, "http://") || strings.HasPrefix(opts.Source, "https://")
	if httpSrc {
		if opts.HealthURL == "" {
			opts.HealthURL = opts.Source
		}
	} else if opts.PromoteDir == "" {
		opts.PromoteDir = opts.Source
	}
	r := &Replica{opts: opts}
	if httpSrc {
		r.src = newHTTPSource(opts.Source, opts.ID, opts.Advertise, opts.Wait)
	} else {
		r.src = &dirSource{dir: opts.Source}
	}
	srv, err := serve.New(opts.Serve)
	if err != nil {
		return nil, err
	}
	r.node.Store(&node{srv: srv, h: srv.Handler()})
	return r, nil
}

// Server returns the current local mirror — for tests and drills that
// compare state hashes or snapshots directly.
func (r *Replica) Server() *serve.Server { return r.node.Load().srv }

// Preload delegates to the local mirror; before promotion it hits the
// follower write fence (a follower's workload comes from its leader).
// Present so the replica satisfies cmd/schedd's service interface.
func (r *Replica) Preload(jobs []*job.Job) error { return r.node.Load().srv.Preload(jobs) }

// Close releases the mirror's journal resources (held only once promoted).
func (r *Replica) Close() error { return r.node.Load().srv.Close() }

// AppliedSeq returns the last journal sequence applied locally.
func (r *Replica) AppliedSeq() uint64 { return r.applied.Load() }

// Promoted reports whether this replica has taken over as leader.
func (r *Replica) Promoted() bool { return r.promoted.Load() }

// Sync performs one replication pull and applies it: at most one record
// batch (one snapshot publication) or one full resync. It returns with the
// follower caught up to whatever the pull saw — the deterministic step
// tests and the Run loop share. A no-op after promotion.
func (r *Replica) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted.Load() {
		return nil
	}
	return r.syncLocked()
}

func (r *Replica) syncLocked() error {
	res, err := r.src.pull(r.applied.Load(), r.opts.MaxBatch)
	if err != nil {
		return err
	}
	r.pullRecords.Add(int64(len(res.recs)))
	r.pullBytes.Add(res.bytes)
	if res.hasMeta {
		r.leaderSeq.Store(res.leaderSeq)
		r.leaderNow.Store(res.leaderNow)
	}
	if res.state != nil {
		return r.resync(res.state)
	}
	if len(res.recs) == 0 {
		if !res.hasMeta {
			// Directory mode has no leader headers; an empty pull means we
			// stand at the journal's durable end.
			r.leaderSeq.Store(r.applied.Load())
		}
		return nil
	}
	if err := r.node.Load().srv.ApplyRecords(res.recs); err != nil {
		return err
	}
	last := res.recs[len(res.recs)-1].Seq
	r.applied.Store(last)
	if !res.hasMeta && last > r.leaderSeq.Load() {
		r.leaderSeq.Store(last)
	}
	return nil
}

// resync rebuilds the local mirror from a full checkpoint+tail image — the
// loud path, taken when the leader pruned past our position (or on first
// contact with a journal whose history is already compacted).
func (r *Replica) resync(st *wal.State) error {
	srv, err := serve.New(r.opts.Serve)
	if err != nil {
		return err
	}
	if err := srv.Bootstrap(st); err != nil {
		return fmt.Errorf("replica: full resync: %w", err)
	}
	r.node.Store(&node{srv: srv, h: srv.Handler()})
	r.applied.Store(st.NextSeq - 1)
	n := r.resyncs.Add(1)
	logf("replica: %s: full-checkpoint resync from %s to seq %d (resync #%d)", r.opts.ID, r.opts.Source, st.NextSeq-1, n)
	return nil
}

// Promote turns this follower into the leader: final catch-up from the
// source, then serve.Promote fences the journal (flock + term record) and
// lifts the write fence. Idempotent once promoted. The caller must ensure
// Run is (or gets) started so the promoted scheduler loop runs; Run itself
// notices the promotion on its next tick.
func (r *Replica) Promote() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoteLocked()
}

func (r *Replica) promoteLocked() error {
	if r.promoted.Load() {
		return nil
	}
	// Final catch-up: a dead leader's journal still holds every write it
	// acknowledged, and promotion must replay all of them. A pull error
	// here is expected (an HTTP leader that just died refuses connections);
	// we proceed with what the journal itself yields at promotion.
	for {
		before := r.applied.Load()
		if err := r.syncLocked(); err != nil {
			logf("replica: %s: final catch-up stopped: %v", r.opts.ID, err)
			break
		}
		if r.applied.Load() == before {
			break
		}
	}
	term, err := r.node.Load().srv.Promote(r.opts.PromoteDir, r.opts.Fsync, r.applied.Load())
	if err != nil {
		return err
	}
	r.promoted.Store(true)
	logf("replica: %s: promoted to leader (term %d, applied seq %d)", r.opts.ID, term, r.applied.Load())
	return nil
}

// probeInterval paces leader liveness probes (only with AutoPromote).
const probeInterval = 100 * time.Millisecond

// Run drives the follower: pull-and-apply every Poll, probe the leader
// when auto-promotion is armed, and — once promoted, by whichever path —
// hand the goroutine over to the promoted server's scheduler loop until
// ctx is cancelled.
func (r *Replica) Run(ctx context.Context) error {
	tick := time.NewTicker(r.opts.Poll)
	defer tick.Stop()
	fails := 0
	var lastProbe time.Time
	for {
		if r.promoted.Load() {
			return r.node.Load().srv.Run(ctx)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		// Drain bursts: keep pulling while records flow instead of applying
		// one batch per tick. Each follow-up pull also re-registers the new
		// applied position with the leader — the ack a quorum write is
		// waiting on — so confirmations trail an applied batch by one
		// round-trip, not one poll interval. Bounded so a promotion or
		// cancellation is never starved by a firehose leader.
		for i := 0; i < 64; i++ {
			before := r.applied.Load()
			if err := r.Sync(); err != nil {
				logf("replica: %s: sync: %v", r.opts.ID, err)
				break
			}
			if r.applied.Load() == before || r.promoted.Load() || ctx.Err() != nil {
				break
			}
		}
		if r.opts.AutoPromote > 0 && r.opts.HealthURL != "" && time.Since(lastProbe) >= probeInterval {
			lastProbe = time.Now()
			if r.probeLeader() {
				fails = 0
				continue
			}
			fails++
			if fails < r.opts.AutoPromote {
				continue
			}
			logf("replica: %s: leader %s failed %d consecutive health probes, promoting", r.opts.ID, r.opts.HealthURL, fails)
			if err := r.Promote(); err != nil {
				// A still-live leader holding the journal flock lands here —
				// the fence working as designed. Keep following.
				logf("replica: %s: promotion refused: %v", r.opts.ID, err)
				fails = 0
			}
		}
	}
}

var probeClient = &http.Client{Timeout: 250 * time.Millisecond}

// probeLeader reports whether the leader answers its liveness endpoint.
func (r *Replica) probeLeader() bool {
	resp, err := probeClient.Get(strings.TrimSuffix(r.opts.HealthURL, "/") + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Replication renders the follower's view for GET /v1/debug/replication:
// where it stands relative to the leader. After promotion it reports the
// promoted server's leader view, flagged Promoted.
func (r *Replica) Replication() serve.ReplicationInfo {
	n := r.node.Load()
	if r.promoted.Load() {
		info := n.srv.Replication()
		info.Promoted = true
		return info
	}
	applied, leader := r.applied.Load(), r.leaderSeq.Load()
	info := serve.ReplicationInfo{
		Role:       "follower",
		Term:       n.srv.Term(),
		Source:     r.opts.Source,
		AppliedSeq: applied,
		LeaderSeq:  leader,
		Resyncs:    r.resyncs.Load(),

		PullRecords:     r.pullRecords.Load(),
		PullBytes:       r.pullBytes.Load(),
		DecodeFallbacks: wal.DecodeFallbacks(),
	}
	if leader > applied {
		info.LagOps = leader - applied
	}
	if snap := n.srv.Current(); snap != nil {
		if lag := r.leaderNow.Load() - snap.SimNow; lag > 0 {
			info.LagVirtual = lag
		}
	}
	return info
}
