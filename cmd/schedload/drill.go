package main

// The crash drill (-drill): the real-process proof that the durability
// layer loses nothing it acknowledged. One cycle runs over a checked-in
// table of topologies (drills, below), and every row takes the same steps:
//
//  1. Burst writes at the row's write endpoints: submits, plus cancels of
//     each writer's own acknowledged jobs. Only acknowledged IDs count.
//  2. SIGKILL the victim — the crash a supervisor or OOM killer delivers:
//     no handlers, no flushing — after the burst, or at burst/3 mid-burst.
//  3. Every surviving write endpoint must answer /healthz and acknowledge
//     a probe submit.
//  4. Shadow replay: wal.Load reads every journal (ignoring any torn tail)
//     and an in-process server replays it from genesis. The acknowledged
//     IDs are split by congruence — journal s of n holds the IDs ≡ s+1
//     (mod n), for process-per-shard members and for a front end's shards
//     alike — and each replay must hold every write acknowledged into it.
//  5. The row's recovery: restart the victim, promote its follower, or
//     replace it.
//  6. A daemon that recovered or promoted from a journal must report the
//     shadow replay's state hash over /v1/debug/stats.
//  7. That daemon must acknowledge a probe submit.
//  8. Where the front end acknowledges at a quorum, every shard's degraded
//     and rejected counters must be 0: each ack was a true quorum ack.
//
// Journals carry over from cycle to cycle, so later cycles also prove
// recovery of recovered (or promoted) state.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fed"
	"repro/internal/instr"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wal"
)

// drill is one row of the crash-drill table: a topology, the process each
// cycle kills, and how the cycle recovers from the kill. The benches
// (bench.go) build their topologies from the same fields and leave the
// kill and recovery ones unset.
type drill struct {
	name string
	// shards is the number of journals and of job-ID congruence classes.
	// Cycle i's victim belongs to shard v = (i-1) mod shards.
	shards int
	// front makes one -shards front end over all the shards the only
	// write endpoint; otherwise each shard is a member process with its
	// own journal and ID class. flags are the write endpoints' extra flags.
	front bool
	flags []string
	// Each shard keeps this many followers. follow starts the n-th one of
	// shard s.
	followers int
	follow    func(c *cluster, s, n int) (*daemon, error)
	// killFollower makes shard v's oldest follower the victim, killed at
	// burst/3; otherwise member v dies after the burst.
	killFollower bool
	// recover is step 5. It returns the daemon that recovered or promoted
	// from journal v (nil when none did) and what happened, for the report;
	// the followers a shard lacks afterwards are started by settle.
	recover func(c *cluster, v int) (*daemon, string, error)
}

// drills is the checked-in topology table; -drill all runs it in order.
var drills = []drill{
	// One journaling leader; the leader dies and is restarted.
	{name: "restart", shards: 1, recover: restartMember},
	// Four process-per-shard members; one dies per cycle, rotating, and is
	// restarted.
	{name: "shards", shards: 4, recover: restartMember},
	// A leader and a directory follower with -promote-after 3; the leader
	// dies, the follower self-promotes, and a new follower is attached.
	{name: "promote", shards: 1, followers: 1, follow: promoter, recover: promoteFollower},
	// A 2-shard front end acknowledging at quorum 1 with two HTTP followers
	// per shard; one follower dies mid-burst, and a replacement is started.
	{name: "quorum", shards: 2, followers: 2, follow: httpFollower, killFollower: true, recover: replaceFollower,
		front: true, flags: []string{"-ack-quorum", "1", "-ack-quorum-timeout", "10s", "-read-route", "replica"}},
}

// config is what every mode that spawns real daemons starts from.
type config struct {
	scheddBin string
	dir       string
	procs     int
	kind      string
	policy    string
	fsync     bool
	writers   int
	iters     int
	burst     time.Duration
	queue     int
	readers   int
	duration  time.Duration
	jsonOut   bool
	env       []string // extra subprocess environment (the read bench pins GOMAXPROCS=1)
}

// runDrills runs the named row of the table, or every row for "all", each
// in its own journal directory under cfg.dir.
func runDrills(cfg config, name string, out io.Writer) error {
	rows := slices.DeleteFunc(slices.Clone(drills), func(d drill) bool { return name != "all" && name != d.name })
	if len(rows) == 0 {
		return fmt.Errorf("-drill %q: want restart, shards, promote, quorum or all", name)
	}
	if cfg.iters < 1 {
		return fmt.Errorf("-drill needs at least one iteration")
	}
	root := cfg.dir
	for _, row := range rows {
		cfg.dir = filepath.Join(root, row.name)
		fmt.Fprintf(out, "schedload drill %s: %s(%s) procs=%d writers=%d burst=%s fsync=%v journal=%s\n",
			row.name, cfg.kind, cfg.policy, cfg.procs, cfg.writers, cfg.burst, cfg.fsync, cfg.dir)
		if err := runDrill(cfg, row, out); err != nil {
			return fmt.Errorf("drill %s: %w", row.name, err)
		}
	}
	return nil
}

// runDrill boots one row's topology and runs cfg.iters cycles on it.
func runDrill(cfg config, row drill, out io.Writer) error {
	c := &cluster{cfg: cfg, row: row}
	defer c.stop()
	err := c.boot()
	if err == nil {
		err = c.settle()
	}
	if err != nil {
		return err
	}
	total := 0
	for i := 1; i <= cfg.iters; i++ {
		acked, err := c.cycle(i, out)
		if err != nil {
			return err
		}
		total += acked
	}
	fmt.Fprintf(out, "drill %s: %d/%d cycles clean, %d acknowledged writes, no acknowledged write lost\n",
		row.name, cfg.iters, cfg.iters, total)
	return nil
}

// cluster is one row's running processes.
type cluster struct {
	cfg       config
	row       drill
	members   []*daemon   // the write endpoints
	followers [][]*daemon // per shard, oldest first
	started   int         // followers started so far, for unique IDs
}

// boot starts the row's write endpoints; settle starts its followers.
func (c *cluster) boot() error {
	c.followers = make([][]*daemon, c.row.shards)
	if c.row.front {
		front, err := startDaemon(c.cfg, c.cfg.dir, append([]string{"-shards", strconv.Itoa(c.row.shards)}, c.row.flags...)...)
		if err != nil {
			return err
		}
		c.members = []*daemon{front}
		return nil
	}
	for s := range c.row.shards {
		d, err := c.startMember(s)
		if err != nil {
			return fmt.Errorf("start member of shard %d: %w", s, err)
		}
		c.members = append(c.members, d)
	}
	return nil
}

// cycle runs steps 1–8 once and reports it.
func (c *cluster) cycle(i int, out io.Writer) (acked int, err error) {
	// 1–2. Burst, and SIGKILL the victim mid-burst or after it.
	v := (i - 1) % c.row.shards
	var victim *daemon
	role, survivors := "follower", c.members
	if c.row.killFollower {
		victim = c.followers[v][0]
		time.AfterFunc(c.cfg.burst/3, victim.sigkill)
	} else {
		victim, role = c.members[v], "leader"
		survivors = slices.Delete(slices.Clone(c.members), v, v+1)
	}
	acks := burstWrites(c.members, c.cfg, c.cfg.burst)
	victim.sigkill() // idempotent: a mid-burst kill that a short burst outran lands here
	parts := acks.split(c.row.shards)
	if len(parts[v].submitted) == 0 {
		return 0, fmt.Errorf("cycle %d: shard %d acknowledged no write before the kill; lengthen -burst", i, v)
	}

	// 3. The survivors must not notice.
	for _, d := range survivors {
		err := getJSON(d.url+"/healthz", &struct{}{})
		if err == nil {
			err = probeSubmit(d.url)
		}
		if err != nil {
			return 0, fmt.Errorf("cycle %d: write endpoint %s after the kill: %w", i, d.url, err)
		}
	}

	// 4. Every journal holds every write acknowledged into it.
	var want uint64
	for s := range parts {
		shadow, err := shadowReplay(c.cfg, c.journal(s))
		if err == nil {
			err = verifyAcks(shadow.Current(), &parts[s])
		}
		if err != nil {
			return 0, fmt.Errorf("cycle %d: shard %d shadow replay: %w", i, s, err)
		}
		if s == v {
			want = shadow.StateHash()
		}
	}

	// 5–7. Recover; a daemon that recovered from journal v lands on its
	// shadow's hash and serves.
	d, outcome, err := c.row.recover(c, v)
	if err == nil {
		err = c.settle()
	}
	if err != nil {
		return 0, fmt.Errorf("cycle %d: shard %d: %w", i, v, err)
	}
	if d != nil {
		st, err := fetchStats(d.url)
		if hash := st.Durability.StateHash; err == nil && hash != want {
			err = fmt.Errorf("%s daemon's hash %d, shadow replay %d", outcome, hash, want)
		}
		if err == nil {
			err = probeSubmit(d.url)
		}
		if err != nil {
			return 0, fmt.Errorf("cycle %d: shard %d after recovery: %w", i, v, err)
		}
		outcome += ", hash " + strconv.FormatUint(want, 10) + " matches shadow"
	}

	// 8. Every quorum ack was a true one.
	if slices.Contains(c.row.flags, "-ack-quorum") {
		for s := range c.row.shards {
			var body json.RawMessage
			err := getJSON(fmt.Sprintf("%s/v1/shards/%d/stats", c.members[0].url, s), &body)
			got := map[string]string{}
			if err == nil {
				err = instr.Walk(body, func(k, v string) { got[k] = v })
			}
			for k, want := range map[string]string{"replication.ack_quorum": "1", "counters.quorum_degraded": "0", "counters.quorum_rejected": "0"} {
				if err == nil && got[k] != want {
					err = fmt.Errorf("%s is %q, want %s", k, got[k], want)
				}
			}
			if err != nil {
				return 0, fmt.Errorf("cycle %d: shard %d quorum: %w", i, s, err)
			}
		}
		outcome += ", quorum clean on every shard"
	}
	fmt.Fprintf(out, "%s cycle %d: %s of shard %d killed, %d submits + %d cancels acknowledged, %d survivors live, %s\n",
		c.row.name, i, role, v, len(acks.submitted), len(acks.cancelled), len(survivors), outcome)
	return len(acks.submitted) + len(acks.cancelled), nil
}

// journal is shard s's journal directory.
func (c *cluster) journal(s int) string {
	if c.row.shards == 1 {
		return c.cfg.dir
	}
	return fed.ShardDir(c.cfg.dir, s)
}

// stop kills every process the row still has.
func (c *cluster) stop() {
	for _, d := range slices.Concat(append(c.followers, c.members)...) {
		d.sigkill()
	}
}

// startMember (re)starts the member of shard s on its journal, owning the
// job-ID congruence class s+1 mod shards: a process-per-shard federation's
// layout, whose IDs stay globally unique with no coordination.
func (c *cluster) startMember(s int) (*daemon, error) {
	class := []string{"-id-start", strconv.Itoa(s + 1), "-id-stride", strconv.Itoa(c.row.shards)}
	return startDaemon(c.cfg, c.journal(s), append(class, c.row.flags...)...)
}

// addFollower starts one more follower of shard s.
func (c *cluster) addFollower(s int) error {
	c.started++
	f, err := c.row.follow(c, s, c.started)
	if err != nil {
		return fmt.Errorf("start follower of shard %d: %w", s, err)
	}
	c.followers[s] = append(c.followers[s], f)
	return nil
}

// settle brings every shard up to the row's follower count and waits until
// each follower has caught up — behind a front end, until it is in its
// shard's read rotation; behind a member, until it has applied the
// member's durable seq — so a cycle or a measurement starts at full
// strength.
func (c *cluster) settle() error {
	for s := range c.followers {
		for len(c.followers[s]) < c.row.followers {
			if err := c.addFollower(s); err != nil {
				return err
			}
		}
	}
	if c.row.front && c.row.followers > 0 {
		return waitFor(func() error {
			var ri fed.RoutingInfo
			err := getJSON(c.members[0].url+"/v1/debug/routing", &ri)
			if err == nil && len(ri.Shards) != c.row.shards {
				err = fmt.Errorf("routing lists %d shards, want %d", len(ri.Shards), c.row.shards)
			}
			for s, sh := range ri.Shards {
				n := 0
				for _, f := range sh.Followers {
					if f.Eligible {
						n++
					}
				}
				if err == nil && n < c.row.followers {
					err = fmt.Errorf("shard %d has %d of %d followers in read rotation", s, n, c.row.followers)
				}
			}
			return err
		})
	}
	for s, fs := range c.followers {
		if c.row.front || len(fs) == 0 {
			continue
		}
		lead, err := fetchStats(c.members[s].url)
		if err != nil {
			return err
		}
		for _, f := range fs {
			if err := waitFor(func() error {
				st, err := fetchStats(f.url)
				if r := st.Replication; err == nil && (r.AppliedSeq < lead.Replication.Seq || r.LagOps > 0) {
					err = fmt.Errorf("follower %s applied seq %d (lag %d), member at %d", f.url, r.AppliedSeq, r.LagOps, lead.Replication.Seq)
				}
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// restartMember restarts member v; it must report that it recovered
// something.
func restartMember(c *cluster, v int) (*daemon, string, error) {
	d, err := c.startMember(v)
	if err != nil {
		return nil, "", fmt.Errorf("restart: %w", err)
	}
	c.members[v] = d
	st, err := fetchStats(d.url)
	if r := st.Durability.Recovery; err == nil && (r == nil || !r.Replayed()) {
		err = fmt.Errorf("restarted daemon reports no recovery")
	}
	return d, "restarted", err
}

// dirFollower starts a follower tailing member s's journal directory, which
// is also its -data-dir: the journal it would take over on promotion.
func dirFollower(c *cluster, s, n int) (*daemon, error) {
	return startDaemon(c.cfg, c.journal(s),
		"-follow", c.journal(s),
		"-follower-id", fmt.Sprintf("ro-%d", n),
		"-replica-poll", "2ms")
}

// promoter starts a directory follower of member s's journal that probes
// the member's health and self-promotes after three failed probes.
func promoter(c *cluster, s, n int) (*daemon, error) {
	return startDaemon(c.cfg, c.journal(s),
		"-follow", c.journal(s),
		"-follower-id", fmt.Sprintf("fo-%d", n),
		"-replica-poll", "2ms",
		"-leader-health", c.members[s].url,
		"-promote-after", "3")
}

// httpFollower starts an in-memory follower of shard s that pulls over
// HTTP — /v1/shards/s of a front end, or a member's own /v1/wal — with
// long polls, so acks ride the journal's Notify wakeup, and advertises its
// listen URL for read routing. Its durability is the leader's journal.
func httpFollower(c *cluster, s, n int) (*daemon, error) {
	src := fmt.Sprintf("%s/v1/shards/%d", c.members[0].url, s)
	if !c.row.front {
		src = c.members[s].url
	}
	return startDaemon(c.cfg, "",
		"-follow", src,
		"-follower-id", fmt.Sprintf("ro-%d-%d", s, n),
		"-replica-poll", "2ms",
		"-replica-wait", "250ms")
}

// promoteFollower waits for the follower to promote itself and makes it
// the leader; settle then puts a fresh follower behind it, so later cycles
// promote promoted state.
func promoteFollower(c *cluster, _ int) (*daemon, string, error) {
	f := c.followers[0][0]
	var st serve.Stats
	err := waitFor(func() (err error) {
		if st, err = fetchStats(f.url); err == nil && !st.Replication.Promoted {
			err = fmt.Errorf("follower %s has not promoted itself", f.url)
		}
		return err
	})
	if err != nil {
		return nil, "", err
	}
	c.members[0], c.followers[0] = f, nil
	return f, fmt.Sprintf("follower promoted (term %d)", st.Replication.Term), nil
}

// replaceFollower drops shard v's dead follower; settle starts its
// replacement.
func replaceFollower(c *cluster, v int) (*daemon, string, error) {
	c.followers[v] = c.followers[v][1:]
	return nil, "replacement follower eligible", nil
}

// daemon is one running schedd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	exit error         // valid once dead is closed
	dead chan struct{} // closed when the process has been reaped
}

// startDaemon spawns schedd on a free port with the given journal
// directory (plus any extra flags: a process-per-shard member's ID
// congruence class, a follower's source) and waits for its ready line.
func startDaemon(cfg config, dir string, extra ...string) (*daemon, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-procs", strconv.Itoa(cfg.procs),
		"-sched", cfg.kind,
		"-policy", cfg.policy,
		"-speed", "1e-9", // frozen clock: the queue the crash interrupts stays put
		"-data-dir", dir,
	}
	if cfg.fsync && dir != "" { // schedd refuses -fsync without a journal to sync
		args = append(args, "-fsync")
	}
	args = append(args, extra...)
	cmd := exec.Command(cfg.scheddBin, args...)
	if len(cfg.env) > 0 {
		cmd.Env = append(os.Environ(), cfg.env...)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", cfg.scheddBin, err)
	}
	d := &daemon{cmd: cmd, dead: make(chan struct{})}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, after, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case urlc <- strings.TrimSpace(after):
				default:
				}
			}
		}
	}()
	go func() { d.exit = cmd.Wait(); close(d.dead) }()
	select {
	case d.url = <-urlc:
		return d, nil
	case <-d.dead:
		return nil, fmt.Errorf("schedd exited before ready: %v\n%s", d.exit, stderr.String())
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("schedd never became ready\n%s", stderr.String())
	}
}

// sigkill delivers the unsurvivable signal and waits for the process to be
// reaped, so the journal directory's flock is free for the next boot.
// Idempotent: killing an already-dead daemon returns immediately.
func (d *daemon) sigkill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.dead
}

// ackLog collects the writes one burst got acknowledged.
type ackLog struct {
	mu        sync.Mutex
	submitted []int
	cancelled []int
}

// split partitions the acknowledged IDs by congruence class: part s of n
// holds the IDs ≡ s+1 (mod n), the IDs journal s owns.
func (a *ackLog) split(n int) []ackLog {
	parts := make([]ackLog, n)
	for _, id := range a.submitted {
		parts[(id-1)%n].submitted = append(parts[(id-1)%n].submitted, id)
	}
	for _, id := range a.cancelled {
		parts[(id-1)%n].cancelled = append(parts[(id-1)%n].cancelled, id)
	}
	return parts
}

// burstWrites hammers every member with submits (and occasional cancels of
// each writer's own acknowledged jobs) until dur has passed, recording only
// acknowledged IDs. The writers are shared out across the members, at
// least one each. Transport errors are expected once a SIGKILL lands and
// are ignored.
func burstWrites(members []*daemon, cfg config, dur time.Duration) *ackLog {
	acks := &ackLog{}
	cl := &http.Client{Timeout: 5 * time.Second}
	stopAt := time.Now().Add(dur)
	var wg sync.WaitGroup
	for _, d := range members {
		for w := 0; w < max(cfg.writers/len(members), 1); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tgt := httpTarget{base: d.url, client: cl}
				var mine []int
				for i := 0; time.Now().Before(stopAt); i++ {
					body, _ := json.Marshal(map[string]any{
						"width":   1 + (w*7+i)%cfg.procs,
						"runtime": 100_000,          // outlives the run: the crash interrupts a full machine
						"user":    1 + (w*31+i)%200, // spreads a front end's hash routing over its shards
					})
					code, data, err := tgt.do("POST", "/v1/jobs", body)
					var v struct{ ID int }
					if err != nil || code != http.StatusCreated || json.Unmarshal(data, &v) != nil {
						continue // not acknowledged: the connection died mid-request
					}
					mine = append(mine, v.ID)
					acks.mu.Lock()
					acks.submitted = append(acks.submitted, v.ID)
					acks.mu.Unlock()
					if i%11 == 10 {
						victim := mine[len(mine)/2]
						if code, _, err := tgt.do("DELETE", "/v1/jobs/"+strconv.Itoa(victim), nil); err == nil && code == http.StatusNoContent {
							acks.mu.Lock()
							acks.cancelled = append(acks.cancelled, victim)
							acks.mu.Unlock()
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	return acks
}

// shadowReplay loads the journal in dir and replays it from genesis into
// an in-process server.
func shadowReplay(cfg config, dir string) (*serve.Server, error) {
	st, err := wal.Load(dir)
	if err != nil {
		return nil, fmt.Errorf("load journal: %w", err)
	}
	shadow, err := serve.New(serve.Options{
		Procs:     cfg.procs,
		Scheduler: cfg.kind,
		Policy:    cfg.policy,
		Audit:     true,
		Speed:     1e-9,
	})
	if err != nil {
		return nil, err
	}
	if err := shadow.Replay(st.Ops()); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return shadow, nil
}

// verifyAcks checks that every acknowledged write exists in the replica's
// published snapshot.
func verifyAcks(snap *serve.Snapshot, acks *ackLog) error {
	for _, id := range acks.submitted {
		if _, ok := snap.Jobs.Get(id); !ok {
			return fmt.Errorf("acknowledged job %d missing after recovery", id)
		}
	}
	for _, id := range acks.cancelled {
		v, ok := snap.Jobs.Get(id)
		if !ok {
			return fmt.Errorf("acknowledged cancelled job %d missing after recovery", id)
		}
		if v.State != sim.StateCancelled.String() {
			return fmt.Errorf("acknowledged cancel of job %d lost: state %q", id, v.State)
		}
	}
	return nil
}

// httpClient bounds every post-kill check and every bench request; a daemon
// that recovered into a wedged state should fail the drill, not hang it.
var httpClient = &http.Client{Timeout: 30 * time.Second}

// getJSON decodes url's 200 answer into v.
func getJSON(url string, v any) error {
	code, data, err := httpTarget{base: url, client: httpClient}.do("GET", "", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", url, code)
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// waitFor retries check every 5 ms until it returns nil, or returns its
// last error once 30 s have passed.
func waitFor(check func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := check()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchStats reads a daemon's GET /v1/debug/stats, either role.
func fetchStats(url string) (st serve.Stats, err error) {
	err = getJSON(url+"/v1/debug/stats", &st)
	return st, err
}

// probeSubmit checks the daemon accepts work.
func probeSubmit(url string) error {
	code, _, err := httpTarget{base: url, client: httpClient}.do("POST", "/v1/jobs", []byte(`{"width": 1, "runtime": 60}`))
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("probe submit: HTTP %d", code)
	}
	return err
}
