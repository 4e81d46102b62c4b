package main

// Crash mode: the kill-during-load proof that the durability layer loses
// nothing it acknowledged. Each iteration bursts writes at a real schedd
// subprocess, SIGKILLs it mid-burst (the crash a supervisor or OOM killer
// delivers — no handlers, no flushing), then checks the journal from both
// ends:
//
//  1. Shadow replay: wal.Load reads the dead daemon's journal (truncating
//     any torn tail) and an in-process server replays it from genesis.
//  2. Daemon recovery: a restarted schedd recovers through its own
//     checkpoint+tail path and reports its state hash over the debug API.
//
// The two hashes must agree with each other, and every write the dead
// daemon acknowledged — submit IDs returned with 201, cancels returned
// with 204 — must exist in the recovered state. The restarted daemon must
// also still be serving (one probe submit per iteration), and the journal
// carries over to the next iteration, so later crashes also prove recovery
// of recovered state.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wal"
)

type killConfig struct {
	scheddBin string
	dir       string
	procs     int
	kind      string
	policy    string
	fsync     bool
	writers   int
	iters     int
	burst     time.Duration
	env       []string // extra subprocess environment (the replica bench pins GOMAXPROCS=1)
}

// daemon is one running schedd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	exit error         // valid once dead is closed
	dead chan struct{} // closed when the process has been reaped
}

// startDaemon spawns schedd on a free port with the given journal
// directory (plus any extra flags — the federated drill passes each
// member's ID congruence class) and waits for its ready line.
func startDaemon(cfg killConfig, dir string, extra ...string) (*daemon, error) {
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

// burstWrites hammers the daemon with submits (and occasional cancels of
// its own acknowledged jobs) until stop, recording only acknowledged IDs.
// Transport errors are expected once the SIGKILL lands and are ignored.
func burstWrites(d *daemon, cfg killConfig, dur time.Duration) *ackLog {
	acks := &ackLog{}
	cl := &http.Client{Timeout: 5 * time.Second}
	stopAt := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < cfg.writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int
			for i := 0; time.Now().Before(stopAt); i++ {
				body, _ := json.Marshal(map[string]any{
					"width":   1 + (w*7+i)%cfg.procs,
					"runtime": 100_000, // outlives the run: the crash interrupts a full machine
				})
				resp, err := cl.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					continue // connection died mid-request: not acknowledged
				}
				var v struct {
					ID int `json:"id"`
				}
				code := resp.StatusCode
				decErr := json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if code != http.StatusCreated || decErr != nil {
					continue
				}
				mine = append(mine, v.ID)
				acks.mu.Lock()
				acks.submitted = append(acks.submitted, v.ID)
				acks.mu.Unlock()
				if i%11 == 10 && len(mine) > 0 {
					victim := mine[len(mine)/2]
					req, _ := http.NewRequest(http.MethodDelete, d.url+"/v1/jobs/"+strconv.Itoa(victim), nil)
					resp, err := cl.Do(req)
					if err != nil {
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusNoContent {
						acks.mu.Lock()
						acks.cancelled = append(acks.cancelled, victim)
						acks.mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	return acks
}

// shadowReplay loads the crashed daemon's journal from dir and replays it
// from genesis into an in-process server, returning the replica and its
// hash.
func shadowReplay(cfg killConfig, dir string) (*serve.Server, uint64, error) {
	st, err := wal.Load(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("load journal: %w", err)
	}
	shadow, err := serve.New(serve.Options{
		Procs:     cfg.procs,
		Scheduler: cfg.kind,
		Policy:    cfg.policy,
		Audit:     true,
		Speed:     1e-9,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := shadow.Replay(st.Ops()); err != nil {
		return nil, 0, fmt.Errorf("shadow replay: %w", err)
	}
	return shadow, shadow.StateHash(), nil
}

// verifyAcks checks that every acknowledged write exists in the replica's
// published snapshot.
func verifyAcks(snap *serve.Snapshot, acks *ackLog) error {
	for _, id := range acks.submitted {
		if _, ok := snap.Jobs.Get(id); !ok {
			return fmt.Errorf("acknowledged job %d missing after recovery", id)
		}
	}
	cancelledState := sim.StateCancelled.String()
	for _, id := range acks.cancelled {
		v, ok := snap.Jobs.Get(id)
		if !ok {
			return fmt.Errorf("acknowledged cancelled job %d missing after recovery", id)
		}
		if v.State != cancelledState {
			return fmt.Errorf("acknowledged cancel of job %d lost: state %q", id, v.State)
		}
	}
	return nil
}

// killClient bounds every post-restart check; a daemon that recovered into
// a wedged state should fail the drill, not hang it.
var killClient = &http.Client{Timeout: 30 * time.Second}

// daemonDurability reads the restarted daemon's debug endpoint.
func daemonDurability(url string) (hash string, recovered bool, err error) {
	resp, err := killClient.Get(url + "/v1/debug/durability")
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	var info struct {
		StateHash string `json:"state_hash"`
		Recovery  *struct {
			CheckpointOps int `json:"checkpoint_ops"`
			TailRecords   int `json:"tail_records"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", false, err
	}
	r := info.Recovery
	return info.StateHash, r != nil && (r.CheckpointOps > 0 || r.TailRecords > 0), nil
}

// probeSubmit checks the restarted daemon still accepts work.
func probeSubmit(url string) error {
	body := strings.NewReader(`{"width": 1, "runtime": 60}`)
	resp, err := killClient.Post(url+"/v1/jobs", "application/json", body)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("probe submit: HTTP %d", resp.StatusCode)
	}
	return nil
}

func runKill(cfg killConfig, out io.Writer) error {
	if cfg.iters < 1 {
		return fmt.Errorf("kill mode needs at least one iteration")
	}
	if cfg.dir == "" {
		dir, err := os.MkdirTemp("", "schedload-kill-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	fmt.Fprintf(out, "schedload kill mode: %s(%s) procs=%d writers=%d burst=%s fsync=%v journal=%s\n",
		cfg.kind, cfg.policy, cfg.procs, cfg.writers, cfg.burst, cfg.fsync, cfg.dir)

	d, err := startDaemon(cfg, cfg.dir)
	if err != nil {
		return err
	}
	// The loop replaces d on every restart; kill whichever daemon is live
	// when we leave. (Each daemon's waitc is received exactly once.)
	defer func() { d.sigkill() }()

	totalAcked := 0
	for i := 1; i <= cfg.iters; i++ {
		acks := burstWrites(d, cfg, cfg.burst)
		d.sigkill()
		if len(acks.submitted) == 0 {
			return fmt.Errorf("iteration %d: no write was acknowledged before the kill; lengthen -burst", i)
		}

		shadow, shadowHash, err := shadowReplay(cfg, cfg.dir)
		if err != nil {
			return fmt.Errorf("iteration %d: %w", i, err)
		}
		if err := verifyAcks(shadow.Current(), acks); err != nil {
			return fmt.Errorf("iteration %d: shadow replay: %w", i, err)
		}

		d, err = startDaemon(cfg, cfg.dir)
		if err != nil {
			return fmt.Errorf("iteration %d: restart: %w", i, err)
		}
		daemonHash, recovered, err := daemonDurability(d.url)
		if err != nil {
			return fmt.Errorf("iteration %d: %w", i, err)
		}
		if !recovered {
			return fmt.Errorf("iteration %d: restarted daemon reports no recovery", i)
		}
		if want := strconv.FormatUint(shadowHash, 10); daemonHash != want {
			return fmt.Errorf("iteration %d: recovery diverged: daemon hash %s, shadow replay %s", i, daemonHash, want)
		}
		if err := probeSubmit(d.url); err != nil {
			return fmt.Errorf("iteration %d: daemon not serving after recovery: %w", i, err)
		}
		totalAcked += len(acks.submitted) + len(acks.cancelled)
		fmt.Fprintf(out, "iteration %d: %d submits + %d cancels acknowledged, SIGKILL, recovery hash %s matches shadow, service live\n",
			i, len(acks.submitted), len(acks.cancelled), daemonHash)
	}
	fmt.Fprintf(out, "kill mode: %d/%d crash/restart cycles clean, %d acknowledged writes, no acknowledged write lost\n",
		cfg.iters, cfg.iters, totalAcked)
	return nil
}
