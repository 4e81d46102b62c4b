// Package fed is the sharded multi-cluster federation front end: one HTTP
// surface over N independent cluster shards, each a full serve.Server —
// its own scheduler loop, incremental sim.Session, lock-free snapshot
// publisher, and (optionally) write-ahead journal in its own directory.
//
// Writes are routed: a pluggable policy (consistent hashing by user, or
// width-aware least-loaded placement driven by each shard's published
// snapshot) picks exactly one shard per job, and the submission then rides
// that shard's mailbox with the single-cluster guarantees intact —
// acknowledged only after it is durable (when journaling) and visible in
// the shard's snapshot. Reads are scatter-gathered: /v1/queue, /metrics,
// /healthz and job lookups load every shard's atomic snapshot pointer and
// merge off-loop, so a gather never blocks any shard's write loop and the
// federation keeps serving while shards drain. Each read endpoint has one
// handler: under replica read routing it first asks the shard's
// ReadBalancer for a follower to proxy to (readroute.go), and under leader
// routing, the default, there is no balancer and every read renders on the
// leaders. Shards never talk to each
// other; the only cross-shard coordination is arithmetic — shard i of N
// assigns job IDs in the congruence class i+1 (mod N), so IDs are globally
// unique with zero synchronization, and preloaded trace IDs are fenced off
// with a journaled ID-floor reservation.
//
// A federation of one shard is the degenerate identity: it routes every
// job to shard 0 and serves that shard's responses unmerged, byte-identical
// to a standalone serve.Server — the replay-equivalence suite pins this, so
// everything the federation layer adds is provably zero-distortion.
package fed

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/job"
	"repro/internal/serve"
)

// Options configure a Federation.
type Options struct {
	// Shards is the cluster count (≥ 1).
	Shards int
	// Route names the placement policy: "hash" (default) or "width".
	Route string
	// Shard is the per-shard server template; Procs is the size of each
	// shard's machine, so the federation's total capacity is
	// Shards × Procs.
	Shard serve.Options
	// DataDir, when set, gives shard i its own journal directory
	// DataDir/shard-<i> (created if missing). Empty runs in-memory.
	DataDir string
	// ReadRoute names the read-routing policy: "leader" (default) renders
	// every read from the shard leaders' published snapshots; "replica"
	// spreads reads across each shard's registered followers whose
	// replication lag is within DefaultMaxLagOps, falling back to the leader
	// when no follower qualifies (see readroute.go).
	ReadRoute string
}

// Federation is a scatter-gather front end over N cluster shards.
type Federation struct {
	router    Router
	shards    []*serve.Server
	balancers []*ReadBalancer // per shard; nil when ReadRoute is "leader"
}

// ShardDir names shard i's journal directory under a federation data dir.
// cmd/schedload's crash drill points shadow replays at the same layout.
func ShardDir(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard-%03d", i))
}

// New builds the shards and the routing policy. Any shard with an existing
// journal recovers during construction; after recovery the federation
// re-fences the global ID floor so no shard can re-issue an ID another
// shard already holds.
func New(opts Options) (*Federation, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("fed: federation needs at least one shard, have %d", opts.Shards)
	}
	router, err := RouterByName(opts.Route, opts.Shards)
	if err != nil {
		return nil, err
	}
	f := &Federation{router: router}
	for i := 0; i < opts.Shards; i++ {
		so := opts.Shard
		so.IDStart, so.IDStride = i+1, opts.Shards
		if opts.DataDir != "" {
			so.Durability.Dir = ShardDir(opts.DataDir, i)
			if err := os.MkdirAll(so.Durability.Dir, 0o755); err != nil {
				f.Close()
				return nil, err
			}
		}
		s, err := serve.New(so)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fed: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, s)
	}
	// Recovered shards may hold preloaded trace IDs outside every
	// congruence class; re-apply the global floor before any live submit.
	if err := f.reserveFloor(f.maxKnownID()); err != nil {
		f.Close()
		return nil, err
	}
	switch opts.ReadRoute {
	case "", "leader":
	case "replica":
		for _, sh := range f.shards {
			f.balancers = append(f.balancers, &ReadBalancer{shard: sh, maxLag: DefaultMaxLagOps, inRotation: make(map[string]bool)})
		}
	default:
		f.Close()
		return nil, fmt.Errorf("fed: unknown read route %q (want leader or replica)", opts.ReadRoute)
	}
	return f, nil
}

// Shards exposes the shard list (index = shard number) for introspection:
// tests, the status endpoint, and cmd/schedd's recovery report.
func (f *Federation) Shards() []*serve.Server { return f.shards }

// Router exposes the active placement policy.
func (f *Federation) Router() Router { return f.router }

// maxKnownID scans every shard's snapshot for the highest job ID in play.
func (f *Federation) maxKnownID() int {
	max := 0
	for _, sh := range f.shards {
		sh.Current().Jobs.Range(func(id int, _ serve.JobView) bool {
			if id > max {
				max = id
			}
			return true
		})
	}
	return max
}

// reserveFloor fences IDs ≤ upTo on every shard (no-op per shard when its
// next ID is already above the floor).
func (f *Federation) reserveFloor(upTo int) error {
	if upTo <= 0 {
		return nil
	}
	for i, sh := range f.shards {
		if err := sh.ReserveIDs(upTo); err != nil {
			return fmt.Errorf("fed: shard %d: reserve ids ≤ %d: %w", i, upTo, err)
		}
	}
	return nil
}

// Preload partitions a replay workload across the shards with the same
// routing policy live submissions use, feeding the width policy the
// backlog it has itself accumulated (snapshots cannot see still-pending
// arrivals). Trace IDs are preserved, so after partitioning every shard's
// ID floor is raised past the highest preloaded ID. The load accounting
// starts from the shards' snapshots, so preloading into a recovered
// federation starts from the recovered backlog. Valid only before Run.
func (f *Federation) Preload(jobs []*job.Job) error {
	parts, maxID := partitionJobs(f.router, f.liveLoads(), jobs)
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := f.shards[i].Preload(part); err != nil {
			return fmt.Errorf("fed: shard %d: preload: %w", i, err)
		}
	}
	return f.reserveFloor(maxID)
}

// partitionJobs routes each job in order and accumulates the routed work
// into the load vector the next decision sees. Every job lands in exactly
// one part; the fuzz harness pins that, plus determinism of the whole
// partition. Returns the parts and the highest job ID seen.
func partitionJobs(r Router, loads []Load, jobs []*job.Job) ([][]*job.Job, int) {
	parts := make([][]*job.Job, len(loads))
	maxID := 0
	for _, j := range jobs {
		i := r.Route(KeyOf(j), loads)
		parts[i] = append(parts[i], j)
		loads[i].QueuedWork += int64(j.Width) * j.Estimate
		if j.ID > maxID {
			maxID = j.ID
		}
	}
	return parts, maxID
}

// Run drives every shard's scheduler loop until ctx is cancelled, then
// waits for all of them to drain. A shard failing mid-run cancels its
// siblings (a federation with a dead shard is misconfigured or corrupt,
// not half-healthy); the first error wins. Reads keep serving from the
// last published snapshots throughout, exactly like a single daemon.
func (f *Federation) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, len(f.shards))
	for _, sh := range f.shards {
		sh := sh
		go func() { errc <- sh.Run(ctx) }()
	}
	var first error
	for range f.shards {
		if err := <-errc; err != nil && first == nil {
			first = err
			cancel()
		}
	}
	return first
}

// Close releases every shard's journal resources. Safe on a partially
// constructed federation.
func (f *Federation) Close() error {
	var first error
	for _, sh := range f.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// liveLoads reads the routing load vector from the shards' published
// snapshots — atomic loads, no locks, never touching a scheduler loop.
func (f *Federation) liveLoads() []Load {
	loads := make([]Load, len(f.shards))
	for i, sh := range f.shards {
		loads[i] = loadOf(sh.Current())
	}
	return loads
}

// Submit routes one submission to its shard and forwards the result: the
// view carries the shard-assigned, globally unique job ID, and the shard is
// returned too, so the HTTP write path can stamp its durable seq.
func (f *Federation) Submit(req serve.SubmitRequest) (serve.JobView, *serve.Server, error) {
	k := Key{User: req.User, Width: req.Width, Estimate: req.Estimate}
	if k.Estimate == 0 {
		k.Estimate = req.Runtime // mirrors the shard's own default
	}
	sh := f.shards[f.router.Route(k, f.liveLoads())]
	v, err := sh.Submit(req)
	return v, sh, err
}

// owner finds the index of the shard holding job id by scanning published
// snapshots. IDs are globally unique (congruence classes for live submits,
// a fenced floor for preloads), so at most one shard matches. A shard
// acknowledges a submit only after publishing the snapshot containing it,
// so a client always finds its own acknowledged jobs.
func (f *Federation) owner(id int) (int, bool) {
	for i, sh := range f.shards {
		if _, ok := sh.Current().Jobs.Get(id); ok {
			return i, true
		}
	}
	return 0, false
}

// cancel withdraws a job on whichever shard owns it and returns that shard,
// so the HTTP write path can stamp its durable seq. An unknown ID goes to
// shard 0, whose error bytes are the ones a single daemon would produce.
func (f *Federation) cancel(id int) (*serve.Server, error) {
	i, _ := f.owner(id)
	return f.shards[i], f.shards[i].Cancel(id)
}
