package main

// PR 9 modes: the routed-read scaling bench, the ack-quorum write sweep,
// and the quorum crash drill.
//
// The routed bench (-read-route replica) spawns a real front end running
// with -read-route replica plus -followers followers per shard, each
// follower pulling its shard's journal over HTTP and advertising its own
// read URL. As in the -replicas bench, every process is pinned to one CPU
// (GOMAXPROCS=1) and serving capacity is measured in sequential
// per-process phases: the front end alone before any follower exists (the
// leader-only baseline), then each follower directly. The aggregate over
// the baseline is the read-scaling number the report prints — on N+1
// cores those phases run concurrently, which is exactly what the sum
// models. A final phase drives the front end with routing live and
// requires /v1/debug/routing to show proxied reads, proving the balancer
// actually spreads the traffic it was measured to have capacity for.
//
// The quorum sweep (-ack-quorum K) measures what follower acknowledgement
// costs the write path: for each level q in 0..K it boots a fresh leader
// with -ack-quorum q and K long-polling HTTP followers (the follower
// count is constant across levels so replication pull load is not a
// variable), hammers it with closed-loop writers, and reports write QPS
// per level plus the cost relative to level 0. The journal Notify hook
// wakes parked follower polls before the leader's fsync, so a quorum
// round-trip overlaps the sync instead of queueing behind it — the sweep
// exists to measure how well that overlap works.
//
// The drill (-quorum-drill) is the crash proof for quorum mode: a 2-shard
// federation front end with -ack-quorum 1 and two followers per shard.
// Each cycle SIGKILLs one follower mid-burst; writes must keep
// acknowledging through the survivor (a dead follower's registry entry
// must never satisfy a quorum — the commit-time liveness re-check), no
// acknowledged write may be lost (shadow replay of both shard journals),
// and the per-shard quorum counters must show zero degraded or rejected
// writes. The victim rotates across shards and cycles.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/fed"
)

// routingInfo is the wire form of GET /v1/debug/routing, decoded to what
// the drills assert on.
type routingInfo struct {
	ReadRoute string `json:"read_route"`
	Shards    []struct {
		Shard     int   `json:"shard"`
		Proxied   int64 `json:"proxied"`
		Fallbacks int64 `json:"fallbacks"`
		Ejections int64 `json:"ejections"`
		Followers []struct {
			ID       string `json:"id"`
			Addr     string `json:"addr"`
			Eligible bool   `json:"eligible"`
		} `json:"followers"`
	} `json:"shards"`
}

func fetchRouting(url string) (routingInfo, error) {
	var ri routingInfo
	resp, err := killClient.Get(url + "/v1/debug/routing")
	if err != nil {
		return ri, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ri, fmt.Errorf("routing status: HTTP %d", resp.StatusCode)
	}
	return ri, json.NewDecoder(resp.Body).Decode(&ri)
}

// shardReplication reads one federation shard's leader-side replication
// state (GET /v1/shards/{i}/replication).
type shardReplInfo struct {
	Seq            uint64 `json:"seq"`
	AckQuorum      int    `json:"ack_quorum"`
	QuorumDegraded int64  `json:"quorum_degraded"`
	QuorumRejected int64  `json:"quorum_rejected"`
	Followers      []struct {
		ID       string `json:"id"`
		Addr     string `json:"addr"`
		AckedSeq uint64 `json:"acked_seq"`
	} `json:"followers"`
}

func fetchShardReplication(url string, shard int) (shardReplInfo, error) {
	var ri shardReplInfo
	resp, err := killClient.Get(fmt.Sprintf("%s/v1/shards/%d/replication", url, shard))
	if err != nil {
		return ri, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ri, fmt.Errorf("shard %d replication: HTTP %d", shard, resp.StatusCode)
	}
	return ri, json.NewDecoder(resp.Body).Decode(&ri)
}

// waitEligible polls the front end until every shard shows `want` eligible
// followers in its read rotation.
func waitEligible(url string, shards, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ri, err := fetchRouting(url)
		if err == nil {
			ok := len(ri.Shards) == shards
			for _, s := range ri.Shards {
				n := 0
				for _, f := range s.Followers {
					if f.Eligible {
						n++
					}
				}
				if n < want {
					ok = false
				}
			}
			if ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("followers never became read-eligible on all %d shards: %+v, %v", shards, ri, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startShardFollower boots one HTTP follower of shard s behind a
// federation front end: it pulls /v1/shards/s/wal, long-polls so acks ride
// the journal Notify wakeup, and advertises its own listen URL for read
// routing. Followers run in-memory (no -data-dir): their durability is the
// leader's journal.
func startShardFollower(cfg killConfig, frontURL string, s, j int) (*daemon, error) {
	return startDaemon(cfg, "",
		"-follow", fmt.Sprintf("%s/v1/shards/%d", frontURL, s),
		"-follower-id", fmt.Sprintf("ro-%d-%d", s, j),
		"-replica-poll", "2ms",
		"-replica-wait", "250ms")
}

// routedBenchConfig parameterizes the routed-read scaling bench.
type routedBenchConfig struct {
	killConfig
	shards    int
	followers int // per shard
	queue     int
	readers   int
	duration  time.Duration
	jsonOut   bool
}

// routedReport is the machine-readable form of one -read-route run.
type routedReport struct {
	Mode              string            `json:"mode"`
	PhaseDuration     float64           `json:"phase_duration_s"`
	Readers           int               `json:"readers"`
	Queue             int               `json:"queue"`
	Shards            int               `json:"shards"`
	FollowersPerShard int               `json:"followers_per_shard"`
	Endpoints         []replicaEndpoint `json:"endpoints"`
	AggregateReadQPS  float64           `json:"aggregate_read_qps"`
	ScalingOverLeader float64           `json:"scaling_over_leader"`
	RoutedReads       classStats        `json:"routed_reads"`
	ProxiedReads      int64             `json:"proxied_reads"`
	FallbackReads     int64             `json:"fallback_reads"`
}

func runRoutedBench(cfg routedBenchConfig, out io.Writer) error {
	if cfg.readers < 1 || cfg.duration <= 0 {
		return fmt.Errorf("routed bench needs at least one reader and a positive duration")
	}
	if cfg.followers < 1 {
		return fmt.Errorf("routed bench needs at least one follower per shard")
	}
	if cfg.dir == "" {
		dir, err := os.MkdirTemp("", "schedload-routed-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	cfg.env = append(cfg.env, "GOMAXPROCS=1")

	front, err := startDaemon(cfg.killConfig, cfg.dir,
		"-read-route", "replica",
		"-shards", strconv.Itoa(cfg.shards))
	if err != nil {
		return err
	}
	daemons := []*daemon{front}
	defer func() {
		for _, d := range daemons {
			d.sigkill()
		}
	}()
	frontTgt := httpTarget{base: front.url, client: &http.Client{Timeout: 10 * time.Second}}

	// Seed the standing queue through the front end, recording the assigned
	// (per-shard congruence class) IDs for the status-poll mix.
	ids, err := seedQueue(frontTgt, cfg.procs, cfg.shards, cfg.queue)
	if err != nil {
		return err
	}

	// Phase 0 — leader-only baseline: no follower exists yet, so every read
	// renders on the shard leaders. This is the denominator of the scaling
	// claim.
	roles := []string{"leader-only"}
	phases := []classStats{measureReads(frontTgt, ids, cfg.readers, cfg.duration)}

	// Bring up the follower fleet and wait until the balancers report every
	// one of them read-eligible — the bench measures serving capacity, not
	// catch-up.
	followers := make([]*daemon, 0, cfg.shards*cfg.followers)
	for s := 0; s < cfg.shards; s++ {
		for j := 0; j < cfg.followers; j++ {
			f, err := startShardFollower(cfg.killConfig, front.url, s, j)
			if err != nil {
				return fmt.Errorf("start follower %d of shard %d: %w", j, s, err)
			}
			daemons = append(daemons, f)
			followers = append(followers, f)
		}
	}
	if err := waitEligible(front.url, cfg.shards, cfg.followers, 30*time.Second); err != nil {
		return err
	}

	// Per-follower phases: each follower's own read capacity, measured
	// directly (its surface is the daemon surface — same endpoints, same
	// bodies).
	for i, f := range followers {
		roles = append(roles, fmt.Sprintf("follower-%d-%d", i/cfg.followers, i%cfg.followers))
		phases = append(phases, measureReads(
			httpTarget{base: f.url, client: &http.Client{Timeout: 10 * time.Second}},
			ids, cfg.readers, cfg.duration))
	}

	// Routed phase: the same mix through the front end with the balancers
	// live. Not part of the aggregate (front end and followers share this
	// machine's core, so the proxy path prices contention, not capacity) —
	// it proves the routing actually spreads reads, which the proxied
	// counter below asserts.
	routed := measureReads(frontTgt, ids, cfg.readers, cfg.duration)
	ri, err := fetchRouting(front.url)
	if err != nil {
		return err
	}
	var proxied, fallbacks int64
	for _, s := range ri.Shards {
		proxied += s.Proxied
		fallbacks += s.Fallbacks
	}
	if proxied == 0 {
		return fmt.Errorf("routed phase proxied no reads to any follower (fallbacks %d): %+v", fallbacks, ri)
	}

	rep := routedReport{
		Mode:              fmt.Sprintf("routed-%dx%d", cfg.shards, cfg.followers),
		PhaseDuration:     cfg.duration.Seconds(),
		Readers:           cfg.readers,
		Queue:             cfg.queue,
		Shards:            cfg.shards,
		FollowersPerShard: cfg.followers,
		RoutedReads:       routed,
		ProxiedReads:      proxied,
		FallbackReads:     fallbacks,
	}
	for i := range phases {
		rep.Endpoints = append(rep.Endpoints, replicaEndpoint{Role: roles[i], Reads: phases[i]})
		rep.AggregateReadQPS += phases[i].QPS
	}
	if phases[0].QPS > 0 {
		rep.ScalingOverLeader = rep.AggregateReadQPS / phases[0].QPS
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(out, "schedload: %s(%s) procs=%d queue=%d readers=%d phase=%s mode=%s (%d shards × %d followers, GOMAXPROCS=1 each, per-process phases)\n",
		cfg.kind, cfg.policy, cfg.procs, cfg.queue, cfg.readers, cfg.duration, rep.Mode, cfg.shards, cfg.followers)
	for i := range phases {
		printClass(out, roles[i], phases[i])
	}
	fmt.Fprintf(out, "  aggregate read capacity %.1f QPS = %.2fx leader-only\n",
		rep.AggregateReadQPS, rep.ScalingOverLeader)
	printClass(out, "routed", routed)
	fmt.Fprintf(out, "  routed phase: %d reads proxied to followers, %d leader fallbacks\n", proxied, fallbacks)
	return nil
}

// quorumBenchConfig parameterizes the ack-quorum write sweep.
type quorumBenchConfig struct {
	killConfig
	quorum   int // sweep levels 0..quorum
	duration time.Duration
	jsonOut  bool
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

func runQuorumBench(cfg quorumBenchConfig, out io.Writer) error {
	if cfg.quorum < 1 {
		return fmt.Errorf("quorum sweep needs -ack-quorum of at least 1")
	}
	if cfg.duration <= 0 {
		return fmt.Errorf("quorum sweep needs a positive duration")
	}
	rep := quorumReport{
		Mode:      fmt.Sprintf("quorum-sweep-%d", cfg.quorum),
		Duration:  cfg.duration.Seconds(),
		Writers:   cfg.writers,
		Followers: cfg.quorum,
		Fsync:     cfg.fsync,
	}
	for q := 0; q <= cfg.quorum; q++ {
		qps, err := measureQuorumLevel(cfg, q)
		if err != nil {
			return fmt.Errorf("quorum level %d: %w", q, err)
		}
		lvl := quorumLevel{Quorum: q, Writes: qps}
		if q > 0 && rep.Levels[0].Writes.QPS > 0 {
			lvl.CostOver = 1 - qps.QPS/rep.Levels[0].Writes.QPS
		}
		rep.Levels = append(rep.Levels, lvl)
		if !cfg.jsonOut {
			if q == 0 {
				fmt.Fprintf(out, "schedload quorum sweep: %s(%s) procs=%d writers=%d duration=%s fsync=%v followers=%d\n",
					cfg.kind, cfg.policy, cfg.procs, cfg.writers, cfg.duration, cfg.fsync, cfg.quorum)
				printClass(out, "q=0", qps)
			} else {
				fmt.Fprintf(out, "  q=%-4d %8d ops  %10.1f QPS  p50=%.0fµs p99=%.0fµs  errors=%d  (cost %.1f%%)\n",
					q, qps.Ops, qps.QPS, qps.P50, qps.P99, qps.Errs, 100*lvl.CostOver)
			}
		}
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return nil
}

// measureQuorumLevel boots a fresh leader at ack-quorum q with the full
// follower fleet behind it and measures closed-loop write QPS. The journal
// directory is fresh per level so earlier levels' history is not replayed
// into later ones.
func measureQuorumLevel(cfg quorumBenchConfig, q int) (classStats, error) {
	dir, err := os.MkdirTemp("", "schedload-quorum-*")
	if err != nil {
		return classStats{}, err
	}
	defer os.RemoveAll(dir)

	extra := []string{}
	if q > 0 {
		extra = append(extra, "-ack-quorum", strconv.Itoa(q), "-ack-quorum-timeout", "10s")
	}
	leader, err := startDaemon(cfg.killConfig, dir, extra...)
	if err != nil {
		return classStats{}, err
	}
	daemons := []*daemon{leader}
	defer func() {
		for _, d := range daemons {
			d.sigkill()
		}
	}()
	for j := 0; j < cfg.quorum; j++ {
		f, err := startDaemon(cfg.killConfig, "",
			"-follow", leader.url,
			"-follower-id", fmt.Sprintf("q-%d", j),
			"-replica-poll", "1ms",
			"-replica-wait", "500ms")
		if err != nil {
			return classStats{}, fmt.Errorf("start follower %d: %w", j, err)
		}
		daemons = append(daemons, f)
	}
	// Every follower must be registered and caught up before the clock
	// starts; a level measured during catch-up would price the backlog. The
	// probe write gives them a first sequence to reach (and, at q > 0,
	// proves the quorum path acks before the clock starts).
	if err := probeSubmit(leader.url); err != nil {
		return classStats{}, fmt.Errorf("probe write: %w", err)
	}
	for j, f := range daemons[1:] {
		if err := waitCaughtUp(f.url, 1, 30*time.Second); err != nil {
			return classStats{}, fmt.Errorf("follower %d: %w", j, err)
		}
	}

	cs := measureWrites(httpTarget{base: leader.url, client: &http.Client{Timeout: 30 * time.Second}},
		cfg.writers, 0, closeAfter(cfg.duration))
	if cs.Errs > 0 {
		return cs, fmt.Errorf("%d write(s) failed at quorum %d (timeout too tight or follower fell over)", cs.Errs, q)
	}
	return cs, nil
}

// runQuorumDrill is the quorum crash drill (see the package comment and
// scripts/quorum-smoke.sh). Topology per cycle: one federation front end
// (-shards 2 -ack-quorum 1 -read-route replica), two HTTP followers per
// shard. Mid-burst a follower is SIGKILLed; the burst's acknowledged
// writes must survive in the shard journals, the shard's quorum counters
// must show no degraded or rejected write (every ack was a true quorum
// ack through the survivor), and a fresh follower replaces the victim for
// the next cycle.
func runQuorumDrill(cfg killConfig, out io.Writer) error {
	const shards, perShard = 2, 2
	if cfg.iters < 1 {
		return fmt.Errorf("quorum drill needs at least one iteration")
	}
	if cfg.dir == "" {
		dir, err := os.MkdirTemp("", "schedload-quorum-drill-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	fmt.Fprintf(out, "schedload quorum drill: %d-shard federation, %d followers/shard, ack-quorum 1, %s(%s) procs=%d writers=%d burst=%s fsync=%v journals=%s/shard-*\n",
		shards, perShard, cfg.kind, cfg.policy, cfg.procs, cfg.writers, cfg.burst, cfg.fsync, cfg.dir)

	front, err := startDaemon(cfg, cfg.dir,
		"-shards", strconv.Itoa(shards),
		"-ack-quorum", "1",
		"-ack-quorum-timeout", "10s",
		"-read-route", "replica")
	if err != nil {
		return err
	}
	defer front.sigkill()

	followers := make([][]*daemon, shards)
	nf := 0
	startF := func(s int) (*daemon, error) {
		nf++
		return startShardFollower(cfg, front.url, s, nf)
	}
	defer func() {
		for _, fs := range followers {
			for _, f := range fs {
				f.sigkill()
			}
		}
	}()
	for s := 0; s < shards; s++ {
		for j := 0; j < perShard; j++ {
			f, err := startF(s)
			if err != nil {
				return fmt.Errorf("start follower %d of shard %d: %w", j, s, err)
			}
			followers[s] = append(followers[s], f)
		}
	}
	if err := waitEligible(front.url, shards, perShard, 30*time.Second); err != nil {
		return err
	}

	totalAcked := 0
	for i := 1; i <= cfg.iters; i++ {
		victimShard := (i - 1) % shards
		victim := followers[victimShard][0]

		// SIGKILL the victim follower mid-burst. Writes must keep
		// acknowledging: shard victimShard's quorum of 1 is satisfiable by
		// its surviving follower, and the dead follower's still-TTL-live
		// registry entry can never vouch for sequences it did not apply.
		killAt := time.AfterFunc(cfg.burst/3, func() { victim.sigkill() })
		acks := burstWrites(front, cfg, cfg.burst)
		killAt.Stop()
		victim.sigkill() // idempotent; guarantees it is dead even on a short burst
		if len(acks.submitted) == 0 {
			return fmt.Errorf("cycle %d: no write was acknowledged; lengthen -burst", i)
		}
		// Post-kill ack proof: a probe write through the front end must
		// still acknowledge on both shards' quorums.
		if err := probeSubmit(front.url); err != nil {
			return fmt.Errorf("cycle %d: front end stopped acking writes after follower kill: %w", i, err)
		}

		// Split the acknowledged IDs by owning shard (IDs ≡ s+1 mod shards)
		// and require every one present in that shard's journal.
		perShardAcks := make([]*ackLog, shards)
		for s := range perShardAcks {
			perShardAcks[s] = &ackLog{}
		}
		shardOf := func(id int) int { return (id - 1 + shards) % shards }
		for _, id := range acks.submitted {
			s := shardOf(id)
			perShardAcks[s].submitted = append(perShardAcks[s].submitted, id)
		}
		for _, id := range acks.cancelled {
			s := shardOf(id)
			perShardAcks[s].cancelled = append(perShardAcks[s].cancelled, id)
		}
		for s := 0; s < shards; s++ {
			shadow, _, err := shadowReplay(cfg, fed.ShardDir(cfg.dir, s))
			if err != nil {
				return fmt.Errorf("cycle %d: shard %d: %w", i, s, err)
			}
			if err := verifyAcks(shadow.Current(), perShardAcks[s]); err != nil {
				return fmt.Errorf("cycle %d: shard %d: %w", i, s, err)
			}
		}

		// Every ack must have been a true quorum ack: no degrade, no
		// rejection, on either shard.
		for s := 0; s < shards; s++ {
			ri, err := fetchShardReplication(front.url, s)
			if err != nil {
				return fmt.Errorf("cycle %d: %w", i, err)
			}
			if ri.AckQuorum != 1 {
				return fmt.Errorf("cycle %d: shard %d reports ack quorum %d, want 1", i, s, ri.AckQuorum)
			}
			if ri.QuorumDegraded != 0 || ri.QuorumRejected != 0 {
				return fmt.Errorf("cycle %d: shard %d quorum not clean: %d degraded, %d rejected",
					i, s, ri.QuorumDegraded, ri.QuorumRejected)
			}
		}

		// Replace the victim so the next cycle starts at full strength.
		replacement, err := startF(victimShard)
		if err != nil {
			return fmt.Errorf("cycle %d: replace follower: %w", i, err)
		}
		followers[victimShard] = append(followers[victimShard][1:], replacement)
		if err := waitEligible(front.url, shards, perShard, 30*time.Second); err != nil {
			return fmt.Errorf("cycle %d: %w", i, err)
		}

		totalAcked += len(acks.submitted) + len(acks.cancelled)
		fmt.Fprintf(out, "cycle %d: follower of shard %d killed mid-burst, %d submits + %d cancels acknowledged, quorum clean on both shards, no acknowledged write lost\n",
			i, victimShard, len(acks.submitted), len(acks.cancelled))
	}
	fmt.Fprintf(out, "quorum drill: %d/%d follower-kill cycles clean, %d acknowledged writes, zero degraded or rejected quorum acks\n",
		cfg.iters, cfg.iters, totalAcked)
	return nil
}
