package main

// The real-process benches, each on a cluster (drill.go) booted from a
// topology row built here.
//
// The read bench (-replicas N) measures read capacity: a journaling leader
// with N directory followers, or with -read-route replica a front end over
// -shards shards with N HTTP followers per shard. Every process is pinned
// to one CPU (GOMAXPROCS=1), so "another follower" means "another core's
// worth of read capacity", and each serving process is measured at full
// tilt in its own phase with a paced writer stream and replication live
// the whole time: phase 0 on the write endpoint before any follower
// exists, then each follower directly once all have caught up. Sequential
// phases rather than concurrent ones because the reference machine is
// single-core: N+1 processes sharing one core can never show a speedup,
// while per-process capacity summed is exactly what N+1 cores realize. The
// report prints that sum over phase 0; -replicas 0 is the single-daemon
// baseline. Behind a front end a final phase reads through it with routing
// live and fails unless /v1/debug/routing shows proxied reads: it proves
// the balancer spreads the traffic the followers were measured to have
// capacity for, and is not part of the sum (front end and followers share
// this machine's core there, so it prices contention, not capacity).
//
// The quorum sweep (-ack-quorum K) measures what follower acknowledgement
// costs the write path: for each level q in 0..K it boots a fresh leader
// with -ack-quorum q and K long-polling HTTP followers (the follower count
// is constant across levels, so replication pull load is not a variable),
// hammers it with closed-loop writers, and reports write QPS per level and
// the cost over level 0. The journal Notify hook wakes parked follower
// polls before the leader's fsync, so a quorum round-trip overlaps the sync
// instead of queueing behind it; the sweep measures how well.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"repro/internal/fed"
)

// writeRate is the read bench's paced writes a second across all writers:
// a realistic stream, not a saturating one, which on a single core would
// steal the measured process's CPU share and price contention instead.
const writeRate = 20

// endpoint is one serving process's isolated read phase.
type endpoint struct {
	Role  string     `json:"role"`
	Reads classStats `json:"reads"`
}

// readReport is the machine-readable form of one -replicas run.
type readReport struct {
	Mode              string      `json:"mode"`
	PhaseDuration     float64     `json:"phase_duration_s"`
	Readers           int         `json:"readers"`
	Writers           int         `json:"writers"`
	Queue             int         `json:"queue"`
	Shards            int         `json:"shards"`
	Replicas          int         `json:"replicas"`
	Endpoints         []endpoint  `json:"endpoints"`
	AggregateReadQPS  float64     `json:"aggregate_read_qps"`
	ScalingOverLeader float64     `json:"scaling_over_leader"`
	RoutedReads       *classStats `json:"routed_reads,omitempty"`
	ProxiedReads      int64       `json:"proxied_reads,omitempty"`
	FallbackReads     int64       `json:"fallback_reads,omitempty"`
	Writes            classStats  `json:"writes"`
}

func runReadBench(cfg config, replicas, shards int, routed bool, out io.Writer) error {
	if cfg.readers < 1 || cfg.duration <= 0 {
		return fmt.Errorf("read bench needs at least one reader and a positive duration")
	}
	row := drill{name: fmt.Sprintf("replica-%d", replicas), shards: 1, followers: replicas, follow: dirFollower}
	if routed {
		if replicas < 1 {
			return fmt.Errorf("-read-route replica needs at least one follower per shard (-replicas)")
		}
		// Width routing lands seedQueue's pins one per shard, so every
		// shard's followers hold IDs to poll.
		row = drill{name: fmt.Sprintf("routed-%dx%d", shards, replicas), shards: shards, followers: replicas, follow: httpFollower,
			front: true, flags: []string{"-read-route", "replica", "-route", "width"}}
	}
	cfg.env = append(cfg.env, "GOMAXPROCS=1")
	c := &cluster{cfg: cfg, row: row}
	defer c.stop()
	if err := c.boot(); err != nil {
		return err
	}
	lead := httpTarget{base: c.members[0].url, client: httpClient}
	ids, err := seedQueue(lead, cfg.procs, shards, cfg.queue)
	if err != nil {
		return err
	}
	rep := readReport{Mode: row.name, PhaseDuration: cfg.duration.Seconds(), Readers: cfg.readers, Writers: cfg.writers,
		Queue: cfg.queue, Shards: shards, Replicas: replicas}
	stop := make(chan struct{})
	writes := make(chan classStats, 1)
	go func() { writes <- measureWrites(lead, cfg.writers, writeRate, stop) }()
	err = readPhases(c, lead, ids, &rep)
	close(stop)
	rep.Writes = <-writes
	if err != nil {
		return err
	}
	if rep.Endpoints[0].Reads.QPS > 0 {
		rep.ScalingOverLeader = rep.AggregateReadQPS / rep.Endpoints[0].Reads.QPS
	}
	if cfg.jsonOut {
		return writeJSON(out, rep)
	}
	fmt.Fprintf(out, "schedload: %s(%s) procs=%d queue=%d readers=%d writers=%d phase=%s mode=%s (%d shards × %d followers, GOMAXPROCS=1 each, per-process phases)\n",
		cfg.kind, cfg.policy, cfg.procs, cfg.queue, cfg.readers, cfg.writers, cfg.duration, rep.Mode, shards, replicas)
	for _, e := range rep.Endpoints {
		printClass(out, e.Role, e.Reads)
	}
	fmt.Fprintf(out, "  aggregate read capacity %.1f QPS = %.2fx phase 0\n", rep.AggregateReadQPS, rep.ScalingOverLeader)
	if rep.RoutedReads != nil {
		printClass(out, "routed", *rep.RoutedReads)
		fmt.Fprintf(out, "  routed phase: %d reads proxied to followers, %d leader fallbacks\n", rep.ProxiedReads, rep.FallbackReads)
	}
	printClass(out, "writes", rep.Writes)
	return nil
}

// readPhases measures the write endpoint alone, starts the followers, then
// measures each follower on the IDs its shard holds and, behind a front
// end, the routed phase.
func readPhases(c *cluster, lead httpTarget, ids []int, rep *readReport) error {
	phase := func(role string, tgt httpTarget, ids []int) {
		cs := measureReads(tgt, ids, c.cfg.readers, c.cfg.duration)
		rep.Endpoints = append(rep.Endpoints, endpoint{Role: role, Reads: cs})
		rep.AggregateReadQPS += cs.QPS
	}
	phase("leader", lead, ids)
	if err := c.settle(); err != nil {
		return err
	}
	for s, fs := range c.followers {
		mine := slices.DeleteFunc(slices.Clone(ids), func(id int) bool { return (id-1)%c.row.shards != s })
		for n, f := range fs {
			phase(fmt.Sprintf("follower-%d-%d", s, n), httpTarget{base: f.url, client: httpClient}, mine)
		}
	}
	if !c.row.front {
		return nil
	}
	routed := measureReads(lead, ids, c.cfg.readers, c.cfg.duration)
	var ri fed.RoutingInfo
	if err := getJSON(lead.base+"/v1/debug/routing", &ri); err != nil {
		return err
	}
	for _, s := range ri.Shards {
		rep.ProxiedReads += s.Proxied
		rep.FallbackReads += s.Fallbacks
	}
	if rep.ProxiedReads == 0 {
		return fmt.Errorf("routed phase proxied no reads to any follower (fallbacks %d): %+v", rep.FallbackReads, ri)
	}
	rep.RoutedReads = &routed
	return nil
}

// quorumLevel is one level's measurement.
type quorumLevel struct {
	Quorum   int        `json:"quorum"`
	Writes   classStats `json:"writes"`
	CostOver float64    `json:"cost_over_level0"` // 1 - QPS/QPS(level 0)
}

// quorumReport is the machine-readable form of one -ack-quorum sweep.
type quorumReport struct {
	Mode      string        `json:"mode"`
	Duration  float64       `json:"duration_s"`
	Writers   int           `json:"writers"`
	Followers int           `json:"followers"`
	Fsync     bool          `json:"fsync"`
	Levels    []quorumLevel `json:"levels"`
}

func runQuorumBench(cfg config, k int, out io.Writer) error {
	if k < 1 || cfg.duration <= 0 {
		return fmt.Errorf("quorum sweep needs -ack-quorum of at least 1 and a positive duration")
	}
	rep := quorumReport{Mode: fmt.Sprintf("quorum-sweep-%d", k), Duration: cfg.duration.Seconds(),
		Writers: cfg.writers, Followers: k, Fsync: cfg.fsync}
	if !cfg.jsonOut {
		fmt.Fprintf(out, "schedload quorum sweep: %s(%s) procs=%d writers=%d duration=%s fsync=%v followers=%d\n",
			cfg.kind, cfg.policy, cfg.procs, cfg.writers, cfg.duration, cfg.fsync, k)
	}
	for q := 0; q <= k; q++ {
		cs, err := measureQuorumLevel(cfg, k, q)
		if err != nil {
			return fmt.Errorf("quorum level %d: %w", q, err)
		}
		lvl := quorumLevel{Quorum: q, Writes: cs}
		if q > 0 && rep.Levels[0].Writes.QPS > 0 {
			lvl.CostOver = 1 - cs.QPS/rep.Levels[0].Writes.QPS
		}
		rep.Levels = append(rep.Levels, lvl)
		if !cfg.jsonOut {
			fmt.Fprintf(out, "  q=%-4d %8d ops  %10.1f QPS  p50=%.0fµs p99=%.0fµs  errors=%d  (cost %.1f%%)\n",
				q, cs.Ops, cs.QPS, cs.P50, cs.P99, cs.Errs, 100*lvl.CostOver)
		}
	}
	if cfg.jsonOut {
		return writeJSON(out, rep)
	}
	return nil
}

// measureQuorumLevel boots a leader at ack-quorum q with k followers behind
// it and measures closed-loop write QPS. Each level journals into a fresh
// directory, so earlier levels' history is not replayed into later ones.
func measureQuorumLevel(cfg config, k, q int) (classStats, error) {
	dir, err := os.MkdirTemp(cfg.dir, fmt.Sprintf("level-%d-*", q))
	if err != nil {
		return classStats{}, err
	}
	cfg.dir = dir
	row := drill{name: "quorum-sweep", shards: 1, followers: k, follow: httpFollower}
	if q > 0 {
		row.flags = []string{"-ack-quorum", strconv.Itoa(q), "-ack-quorum-timeout", "10s"}
	}
	c := &cluster{cfg: cfg, row: row}
	defer c.stop()
	// Every follower must be registered and caught up before the clock
	// starts; a level measured during catch-up would price the backlog. The
	// probe write gives them a first seq to reach (and, at q > 0, proves the
	// quorum path acks).
	err = c.boot()
	if err == nil {
		err = c.settle()
	}
	if err == nil {
		err = probeSubmit(c.members[0].url)
	}
	if err == nil {
		err = c.settle()
	}
	if err != nil {
		return classStats{}, err
	}
	cs := measureWrites(httpTarget{base: c.members[0].url, client: httpClient}, cfg.writers, 0, closeAfter(cfg.duration))
	if cs.Errs > 0 {
		return cs, fmt.Errorf("%d write(s) failed at quorum %d (timeout too tight or follower fell over)", cs.Errs, q)
	}
	return cs, nil
}

// writeJSON writes v as indented JSON, the form every -json report takes.
func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
