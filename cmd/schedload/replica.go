package main

// Replica modes: the read-scaling benchmark and the failover drill.
//
// The benchmark (-replicas N) spawns a real leader schedd with a journal
// plus N follower schedds tailing that journal directory, every process
// pinned to one CPU (GOMAXPROCS=1) so "another replica" genuinely means
// "another core's worth of read capacity" rather than more goroutines on
// the same scheduler. Each serving process is then measured at full tilt
// in its own phase — all readers at the leader, then all readers at each
// follower in turn, with the writer stream and replication live the whole
// time — and the report sums the phases into an aggregate read capacity.
// Sequential phases rather than concurrent round-robin because the
// reference machine is single-core: N+1 processes sharing one core can
// never show a speedup no matter how well replication works, while
// per-process capacity × N+1 is exactly what N+1 cores realize (each
// process is pinned to one core's worth of CPU). The scaling factor the
// report prints is aggregate over the leader-alone phase; -replicas 0 is
// that single-daemon baseline run standalone.
//
// The drill (-promote) is the failover analogue of -kill: burst
// acknowledged writes at the leader, SIGKILL it, and require its follower
// to self-promote (health probes against the dead leader) and come up as a
// leader holding every acknowledged write — proven the same way -kill
// proves recovery, by hash equality between the promoted daemon and an
// in-process shadow replay of the journal. The promoted daemon then serves
// as leader for the next cycle, with a fresh follower behind it, so each
// cycle also proves promotion of promoted state.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"
)

// replStatus is the wire form of GET /v1/debug/replication, both roles.
type replStatus struct {
	Role       string `json:"role"`
	Term       uint64 `json:"term"`
	Seq        uint64 `json:"seq"`
	AppliedSeq uint64 `json:"applied_seq"`
	LagOps     uint64 `json:"lag_ops"`
	Promoted   bool   `json:"promoted"`
}

func fetchReplication(url string) (replStatus, error) {
	var st replStatus
	resp, err := killClient.Get(url + "/v1/debug/replication")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("replication status: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitCaughtUp polls a follower until it has applied at least min with no
// reported lag.
func waitCaughtUp(url string, min uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := fetchReplication(url)
		if err == nil && st.AppliedSeq >= min && st.LagOps == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower never caught up to seq %d (applied %d, lag %d): %v", min, st.AppliedSeq, st.LagOps, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitPromoted polls a follower until it reports itself promoted.
func waitPromoted(url string, timeout time.Duration) (replStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := fetchReplication(url)
		if err == nil && st.Promoted {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("follower never promoted: %+v, %v", st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// replicaBenchConfig parameterizes the read-scaling benchmark.
type replicaBenchConfig struct {
	killConfig
	replicas  int
	queue     int
	readers   int
	writers   int
	writeRate int // paced writes/second across all writers; 0 = closed loop
	duration  time.Duration
	jsonOut   bool
}

func runReplicaBench(cfg replicaBenchConfig, out io.Writer) error {
	if cfg.readers < 1 || cfg.duration <= 0 {
		return fmt.Errorf("replica bench needs at least one reader and a positive duration")
	}
	if cfg.dir == "" {
		dir, err := os.MkdirTemp("", "schedload-replica-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	cfg.env = append(cfg.env, "GOMAXPROCS=1")

	leader, err := startDaemon(cfg.killConfig, cfg.dir)
	if err != nil {
		return err
	}
	daemons := []*daemon{leader}
	defer func() {
		for _, d := range daemons {
			d.sigkill()
		}
	}()
	for i := 0; i < cfg.replicas; i++ {
		f, err := startDaemon(cfg.killConfig, cfg.dir,
			"-follow", cfg.dir,
			"-follower-id", fmt.Sprintf("ro-%d", i+1),
			"-replica-poll", "2ms")
		if err != nil {
			return fmt.Errorf("start follower %d: %w", i+1, err)
		}
		daemons = append(daemons, f)
	}

	// Seed the leader with the standing queue every read has to render.
	ids, err := seedQueue(httpTarget{base: leader.url, client: &http.Client{Timeout: 10 * time.Second}}, cfg.procs, 1, cfg.queue)
	if err != nil {
		return err
	}

	// Every follower must stand at the leader's durable seq before the
	// clock starts; the benchmark measures serving capacity, not catch-up.
	ls, err := fetchReplication(leader.url)
	if err != nil {
		return err
	}
	for i, f := range daemons[1:] {
		if err := waitCaughtUp(f.url, ls.Seq, 30*time.Second); err != nil {
			return fmt.Errorf("follower %d: %w", i+1, err)
		}
	}

	endpoints := make([]target, len(daemons))
	for i, d := range daemons {
		endpoints[i] = httpTarget{base: d.url, client: &http.Client{Timeout: 10 * time.Second}}
	}

	// The writer stream runs across every phase, so follower phases pay
	// their real replication-apply overhead while being measured. It is
	// paced (writeRate across all writers), not closed-loop: the question
	// here is read capacity under a realistic write stream, and on the
	// single-core reference machine a saturating writer would otherwise
	// steal the measured process's CPU share and price contention instead.
	writeStop := make(chan struct{})
	writesDone := make(chan classStats, 1)
	go func() { writesDone <- measureWrites(endpoints[0], cfg.writers, cfg.writeRate, writeStop) }()

	roles := make([]string, len(endpoints))
	phases := make([]classStats, len(endpoints))
	for i, ep := range endpoints {
		if i == 0 {
			roles[i] = "leader"
		} else {
			roles[i] = fmt.Sprintf("follower-%d", i)
		}
		phases[i] = measureReads(ep, ids, cfg.readers, cfg.duration)
	}
	close(writeStop)
	writes := <-writesDone

	rep := replicaReport{
		Mode:          fmt.Sprintf("replica-%d", cfg.replicas),
		PhaseDuration: cfg.duration.Seconds(),
		Readers:       cfg.readers,
		Writers:       cfg.writers,
		Queue:         cfg.queue,
		Replicas:      cfg.replicas,
		Writes:        writes,
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
	fmt.Fprintf(out, "schedload: %s(%s) procs=%d queue=%d readers=%d writers=%d phase=%s mode=%s (leader+%d followers, GOMAXPROCS=1 each, per-process phases)\n",
		cfg.kind, cfg.policy, cfg.procs, cfg.queue, cfg.readers, cfg.writers, cfg.duration, rep.Mode, cfg.replicas)
	for i := range phases {
		printClass(out, roles[i], phases[i])
	}
	fmt.Fprintf(out, "  aggregate read capacity %.1f QPS = %.2fx the leader alone\n",
		rep.AggregateReadQPS, rep.ScalingOverLeader)
	printClass(out, "writes", writes)
	return nil
}

// replicaEndpoint is one serving process's isolated read phase.
type replicaEndpoint struct {
	Role  string     `json:"role"`
	Reads classStats `json:"reads"`
}

// replicaReport is the machine-readable form of one -replicas run.
type replicaReport struct {
	Mode              string            `json:"mode"`
	PhaseDuration     float64           `json:"phase_duration_s"`
	Readers           int               `json:"readers"`
	Writers           int               `json:"writers"`
	Queue             int               `json:"queue"`
	Replicas          int               `json:"replicas"`
	Endpoints         []replicaEndpoint `json:"endpoints"`
	AggregateReadQPS  float64           `json:"aggregate_read_qps"`
	ScalingOverLeader float64           `json:"scaling_over_leader"`
	Writes            classStats        `json:"writes"`
}

// runPromote is the leader-failover drill. Each cycle: burst acknowledged
// writes at the leader, SIGKILL it, wait for its follower to self-promote,
// and require the promoted daemon's state hash to match an in-process
// shadow replay of the journal — which must itself hold every acknowledged
// write. Verification runs before the probe submit so the comparison is
// against exactly the state the dead leader acknowledged.
func runPromote(cfg killConfig, out io.Writer) error {
	if cfg.iters < 1 {
		return fmt.Errorf("promote mode needs at least one iteration")
	}
	if cfg.dir == "" {
		dir, err := os.MkdirTemp("", "schedload-promote-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	fmt.Fprintf(out, "schedload promote mode: %s(%s) procs=%d writers=%d burst=%s fsync=%v journal=%s\n",
		cfg.kind, cfg.policy, cfg.procs, cfg.writers, cfg.burst, cfg.fsync, cfg.dir)

	nf := 0
	startFollower := func(leaderURL string) (*daemon, error) {
		nf++
		return startDaemon(cfg, cfg.dir,
			"-follow", cfg.dir,
			"-follower-id", fmt.Sprintf("fo-%d", nf),
			"-replica-poll", "2ms",
			"-leader-health", leaderURL,
			"-promote-after", "3")
	}

	leader, err := startDaemon(cfg, cfg.dir)
	if err != nil {
		return err
	}
	follower, err := startFollower(leader.url)
	if err != nil {
		leader.sigkill()
		return err
	}
	// The loop rotates both on every cycle; kill whichever pair is live.
	defer func() { leader.sigkill(); follower.sigkill() }()

	totalAcked := 0
	for i := 1; i <= cfg.iters; i++ {
		acks := burstWrites(leader, cfg, cfg.burst)
		if len(acks.submitted) == 0 {
			return fmt.Errorf("cycle %d: no write was acknowledged before the kill; lengthen -burst", i)
		}
		leader.sigkill()

		st, err := waitPromoted(follower.url, 30*time.Second)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", i, err)
		}
		shadow, shadowHash, err := shadowReplay(cfg, cfg.dir)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", i, err)
		}
		if err := verifyAcks(shadow.Current(), acks); err != nil {
			return fmt.Errorf("cycle %d: shadow replay: %w", i, err)
		}
		daemonHash, _, err := daemonDurability(follower.url)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", i, err)
		}
		if want := strconv.FormatUint(shadowHash, 10); daemonHash != want {
			return fmt.Errorf("cycle %d: promotion diverged: promoted hash %s, shadow replay %s", i, daemonHash, want)
		}
		if err := probeSubmit(follower.url); err != nil {
			return fmt.Errorf("cycle %d: promoted daemon not accepting writes: %w", i, err)
		}
		totalAcked += len(acks.submitted) + len(acks.cancelled)
		fmt.Fprintf(out, "cycle %d: %d submits + %d cancels acknowledged, leader SIGKILLed, follower promoted (term %d), hash %s matches shadow, writes live\n",
			i, len(acks.submitted), len(acks.cancelled), st.Term, daemonHash)

		// The promoted daemon is the next cycle's leader; put a fresh
		// follower behind it so later cycles promote promoted state.
		leader = follower
		follower, err = startFollower(leader.url)
		if err != nil {
			follower = leader // keep the defer pair valid
			return fmt.Errorf("cycle %d: start next follower: %w", i, err)
		}
	}
	fmt.Fprintf(out, "promote mode: %d/%d leader-kill/promote cycles clean, %d acknowledged writes, no acknowledged write lost\n",
		cfg.iters, cfg.iters, totalAcked)
	return nil
}
