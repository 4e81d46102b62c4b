package fed

// Scatter-gather merging. A gather loads every shard's published snapshot
// (one atomic pointer read each) and folds them into the single-cluster
// wire shapes, so federation clients see the same API a standalone daemon
// serves. Merge order is stable: shards are always folded in index order,
// and each shard's internal ordering (policy order for queues, job-ID
// order for running jobs) is preserved by concatenation — two gathers over
// unchanged shards render identical bytes. A single-shard federation
// short-circuits to the shard's own rendering, which is what makes the
// 1-shard replay-equivalence suite byte-identical by construction.

import (
	"repro/internal/job"
	"repro/internal/serve"
)

// gather returns one published snapshot per shard, in shard order. Each is
// immutable; the vector is a consistent-enough cut for serving (each
// shard's snapshot is internally consistent, and per-shard versions only
// grow between gathers).
func (f *Federation) gather() []*serve.Snapshot {
	snaps := make([]*serve.Snapshot, len(f.shards))
	for i, sh := range f.shards {
		snaps[i] = sh.Current()
	}
	return snaps
}

// Queue renders the federated GET /v1/queue: every shard's queue listing
// (forecasts attached by the shard's own memoized dry-run) concatenated in
// shard order, counters summed, Version the sum of shard versions (each
// shard's version is monotonic, so the sum is too), Now the furthest
// shard's clock.
func (f *Federation) Queue() serve.QueueResponse {
	if len(f.shards) == 1 {
		return f.shards[0].Queue()
	}
	parts := make([]serve.QueueResponse, len(f.shards))
	for i, sh := range f.shards {
		parts[i] = sh.Queue()
	}
	return mergeQueues(parts)
}

// mergeQueues folds per-shard queue listings (in shard order) into the
// federated shape. Shared by the leader-mode gather and the replica-routed
// fold, which fetches some parts from followers — both produce identical
// bytes at equal applied state because the fold itself is order- and
// value-deterministic.
func mergeQueues(parts []serve.QueueResponse) serve.QueueResponse {
	var out serve.QueueResponse
	for i, r := range parts {
		if i == 0 {
			out.Scheduler = r.Scheduler
		}
		out.Version += r.Version
		if r.Now > out.Now {
			out.Now = r.Now
		}
		out.Procs += r.Procs
		out.ProcsBusy += r.ProcsBusy
		out.Submitted += r.Submitted
		out.Pending += r.Pending
		out.Completed += r.Completed
		out.Cancelled += r.Cancelled
		out.Queued = append(out.Queued, r.Queued...)
		out.Running = append(out.Running, r.Running...)
	}
	return out
}

// MergedSnapshot folds the shard snapshots into one federation-wide
// snapshot in the single-cluster shape: counters and category sums added,
// utilization recomputed from the shards' raw busy areas (not averaged
// fractions), queues concatenated in shard order. /metrics renders from
// it; tests read the merged category slowdowns off it.
func (f *Federation) MergedSnapshot() *serve.Snapshot {
	snaps := f.gather()
	if len(snaps) == 1 {
		return snaps[0]
	}
	out := &serve.Snapshot{Scheduler: snaps[0].Scheduler, AuditViolations: -1}
	var busyArea, procsArea int64
	audited := false
	for _, s := range snaps {
		out.Version += s.Version
		if s.Now > out.Now {
			out.Now = s.Now
		}
		if s.SimNow > out.SimNow {
			out.SimNow = s.SimNow
		}
		out.Draining = out.Draining || s.Draining
		out.Procs += s.Procs
		out.ProcsBusy += s.ProcsBusy
		out.Pending += s.Pending
		out.Submitted += s.Submitted
		out.Started += s.Started
		out.Resumed += s.Resumed
		out.Completed += s.Completed
		out.Cancelled += s.Cancelled
		out.Rejected += s.Rejected
		busyArea += s.BusyArea
		procsArea += int64(s.Procs) * s.BusyUpTo
		if s.AuditViolations >= 0 {
			if !audited {
				audited = true
				out.AuditViolations = 0
			}
			out.AuditViolations += s.AuditViolations
		}
		for c := job.Category(0); c < job.NumCategories; c++ {
			out.CatSum[c] += s.CatSum[c]
			out.CatN[c] += s.CatN[c]
		}
		out.Running = append(out.Running, s.Running...)
	}
	var queued []serve.JobView
	for _, s := range snaps {
		queued = append(queued, s.QueuedViews()...)
	}
	out.SetQueuedViews(queued)
	out.BusyArea, out.BusyUpTo = busyArea, out.Now
	if procsArea > 0 {
		out.Utilization = float64(busyArea) / float64(procsArea)
	}
	total := 0
	for _, s := range snaps {
		total += s.Jobs.Len()
	}
	views := make(map[int]serve.JobView, total)
	for _, s := range snaps {
		s.Jobs.Range(func(id int, v serve.JobView) bool {
			views[id] = v
			return true
		})
	}
	out.Jobs = serve.NewJobIndex(views)
	return out
}

// ShardStatus is one row of GET /v1/shards: the per-shard state behind the
// merged surface, for operators and the federation tests.
type ShardStatus struct {
	Shard      int    `json:"shard"`
	Scheduler  string `json:"scheduler"`
	Procs      int    `json:"procs"`
	ProcsBusy  int    `json:"procs_busy"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	Pending    int    `json:"pending"`
	Version    uint64 `json:"version"`
	Now        int64  `json:"now"`
	Submitted  int64  `json:"submitted"`
	Completed  int64  `json:"completed"`
	Cancelled  int64  `json:"cancelled"`
	Draining   bool   `json:"draining,omitempty"`
}

// Status reports every shard's current state in shard order.
func (f *Federation) Status() []ShardStatus {
	out := make([]ShardStatus, len(f.shards))
	for i, snap := range f.gather() {
		out[i] = ShardStatus{
			Shard:      i,
			Scheduler:  snap.Scheduler,
			Procs:      snap.Procs,
			ProcsBusy:  snap.ProcsBusy,
			QueueDepth: snap.QueueDepth(),
			Running:    len(snap.Running),
			Pending:    snap.Pending,
			Version:    snap.Version,
			Now:        snap.Now,
			Submitted:  snap.Submitted,
			Completed:  snap.Completed,
			Cancelled:  snap.Cancelled,
			Draining:   snap.Draining,
		}
	}
	return out
}
