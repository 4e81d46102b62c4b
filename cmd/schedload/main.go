// Command schedload is a closed-loop load generator for the scheduling
// daemon: it seeds a busy machine with a standing queue, then hammers the
// service with concurrent reader and writer goroutines for a fixed duration
// and reports sustained throughput and latency percentiles per class.
//
//	schedload -readers 8 -writers 1 -duration 5s
//	schedload -addr 127.0.0.1:8080 -queue 0 # aim at a live daemon
//	schedload -data-dir /tmp/wal            # WAL-on (A/B vs the same run without)
//	schedload -kill -schedd ./schedd        # SIGKILL a real daemon mid-burst
//	schedload -shards 8 -readers 0 -writers 16   # federated write scaling
//	schedload -kill -shards 4 -schedd ./schedd   # SIGKILL one shard of four
//	schedload -replicas 2 -schedd ./schedd       # leader + 2 read replicas, read QPS
//	schedload -promote -schedd ./schedd          # leader-kill → follower-promotes drill
//
// Crash mode (-kill) spawns a real schedd with a journal, hammers it with
// acknowledged writes, SIGKILLs it mid-burst, and verifies recovery two
// ways: an in-process shadow replay of the dead daemon's journal, and the
// restarted daemon's own recovery — both must land on the same state hash,
// and every acknowledged write must survive. See scripts/crash-smoke.sh.
// With -shards N the crash drill runs against a process-per-shard
// federation (per-shard journals in the fed.ShardDir layout, job IDs in
// per-shard congruence classes): one shard is SIGKILLed per iteration while
// its siblings must keep acknowledging writes, and the victim must recover
// to the shadow replay's hash.
//
// With -shards N (no -kill) the self-hosted daemon is an in-process
// federation front end over N shards of -procs processors each, routed by
// -route; sweeping -shards with -readers 0 is the write-scaling experiment
// (PERFORMANCE.md §3).
//
// Self-hosted runs (the default) drive the daemon's HTTP handler in
// process, so the numbers measure the service itself — snapshot rendering,
// forecast memoization, mailbox batching — rather than kernel sockets.
//
// The reader mix models real polling traffic: mostly per-job status probes
// (every client polls its own job), a steady trickle of health checks and
// metric scrapes, and occasional whole-queue listings.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/fed"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedload:", err)
		os.Exit(1)
	}
}

// target abstracts where requests go: the in-process handler for
// self-hosted runs, a real HTTP endpoint for -addr runs. The response body
// comes back so the seeding path can read the assigned job IDs (a
// federation hands out IDs in per-shard congruence classes, so they cannot
// be guessed from the submission count).
type target interface {
	do(method, path string, body []byte) (int, []byte, error)
}

// handlerTarget drives an http.Handler directly — no sockets, no client
// pooling, just the service's own request cost.
type handlerTarget struct{ h http.Handler }

func (t handlerTarget) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes(), nil
}

// httpTarget talks to a live daemon over TCP.
type httpTarget struct {
	base   string
	client *http.Client
}

func (t httpTarget) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// classStats aggregates one request class (reads or writes).
type classStats struct {
	Ops  int     `json:"ops"`
	QPS  float64 `json:"qps"`
	P50  float64 `json:"p50_us"`
	P99  float64 `json:"p99_us"`
	Errs int     `json:"errors"`
}

// report is the machine-readable form of one run (-json).
type report struct {
	Mode     string     `json:"mode"`
	Duration float64    `json:"duration_s"`
	Readers  int        `json:"readers"`
	Writers  int        `json:"writers"`
	Queue    int        `json:"queue"`
	Shards   int        `json:"shards,omitempty"`
	Route    string     `json:"route,omitempty"`
	Reads    classStats `json:"reads"`
	Writes   classStats `json:"writes"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("schedload", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr     = fs.String("addr", "", "target a running daemon at host:port; empty self-hosts one in process")
		procs    = fs.Int("procs", 64, "machine size for the self-hosted daemon")
		kind     = fs.String("sched", "easy", "scheduler kind for the self-hosted daemon")
		policy   = fs.String("policy", "FCFS", "queue priority policy for the self-hosted daemon")
		queue    = fs.Int("queue", 256, "standing queue depth to seed before measuring")
		readers  = fs.Int("readers", 8, "concurrent reader goroutines")
		writers  = fs.Int("writers", 1, "concurrent writer (submit) goroutines")
		duration = fs.Duration("duration", 5*time.Second, "measurement window")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		dataDir  = fs.String("data-dir", "", "self-hosted: journal directory (WAL on); empty runs in-memory — the A/B for the durability overhead. In -kill mode, the journal directory shared across crashes")
		fsyncOn  = fs.Bool("fsync", false, "journal with one fsync per commit batch")
		kill     = fs.Bool("kill", false, "crash mode: spawn a real schedd, SIGKILL it mid-burst, restart, verify no acknowledged write was lost")
		schedd   = fs.String("schedd", "schedd", "kill mode: path to the schedd binary")
		iters    = fs.Int("iters", 3, "kill mode: crash/restart iterations")
		burst    = fs.Duration("burst", 300*time.Millisecond, "kill mode: write burst before each SIGKILL")
		shards   = fs.Int("shards", 1, "self-hosted: federate this many shards of -procs processors each behind one front end; in -kill mode, spawn a process-per-shard federation and crash one shard per iteration")
		routeF   = fs.String("route", "width", "federation routing policy: hash or width")
		replicas = fs.Int("replicas", -1, "read-replica bench: spawn a real leader plus this many journal-tailing followers (GOMAXPROCS=1 each) and measure each process's read capacity in sequential phases; 0 is the single-daemon baseline; needs -schedd")
		wrRate   = fs.Int("write-rate", 20, "replica bench: paced writes/second across all writers during every phase; 0 runs the writers closed-loop")
		promote  = fs.Bool("promote", false, "failover drill: SIGKILL a real leader mid-burst, require its follower to self-promote with no acknowledged write lost; needs -schedd")
		readRt   = fs.String("read-route", "", "routed-read bench: spawn a real front end with -read-route replica plus -followers followers per shard and measure per-process read capacity in sequential phases; needs -schedd")
		follPer  = fs.Int("followers", 2, "routed-read bench: followers per shard")
		ackQ     = fs.Int("ack-quorum", -1, "quorum sweep: measure write QPS at every ack-quorum level 0..N with N real followers attached; needs -schedd")
		qDrill   = fs.Bool("quorum-drill", false, "quorum crash drill: 2-shard federation with ack-quorum 1 and 2 followers per shard, SIGKILL one follower mid-burst each cycle, require every acknowledged write durable and zero degraded quorum acks; needs -schedd")
		qSweep   = fs.Bool("queue-sweep", false, "sweep the standing queue depth 64..1024 (fresh self-hosted daemon per depth) and report write QPS per depth; run with -readers 0 -writers 16 for the PERFORMANCE.md §6 acceptance curve")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, have %d", *shards)
	}
	// cfg is what every mode that spawns real daemons starts from.
	cfg := killConfig{
		scheddBin: *schedd,
		dir:       *dataDir,
		procs:     *procs,
		kind:      *kind,
		policy:    *policy,
		fsync:     *fsyncOn,
		writers:   max(*writers, 1),
		iters:     *iters,
		burst:     *burst,
	}
	if *qSweep {
		if *kill || *addr != "" || *promote || *replicas >= 0 || *readRt != "" || *ackQ >= 0 || *qDrill || *shards > 1 || *dataDir != "" {
			return fmt.Errorf("-queue-sweep self-hosts a fresh single daemon per depth: drop the other modes")
		}
		return runQueueSweep(queueSweepConfig{
			procs:    *procs,
			kind:     *kind,
			policy:   *policy,
			readers:  *readers,
			writers:  *writers,
			duration: *duration,
			jsonOut:  *jsonOut,
		}, out)
	}
	if *readRt != "" || *ackQ >= 0 || *qDrill {
		if *kill || (*shards > 1 && *readRt == "") || *addr != "" || *promote || *replicas >= 0 {
			return fmt.Errorf("quorum/routing modes run their own real daemons: drop -kill/-addr/-promote/-replicas")
		}
		n := 0
		for _, on := range []bool{*readRt != "", *ackQ >= 0, *qDrill} {
			if on {
				n++
			}
		}
		if n > 1 {
			return fmt.Errorf("-read-route, -ack-quorum, and -quorum-drill are separate modes")
		}
		if *readRt != "" && *readRt != "replica" {
			return fmt.Errorf("-read-route %q: the bench only routes to replicas (want replica)", *readRt)
		}
		switch {
		case *qDrill:
			return runQuorumDrill(cfg, out)
		case *ackQ >= 0:
			return runQuorumBench(quorumBenchConfig{
				killConfig: cfg,
				quorum:     *ackQ,
				duration:   *duration,
				jsonOut:    *jsonOut,
			}, out)
		default:
			return runRoutedBench(routedBenchConfig{
				killConfig: cfg,
				shards:     *shards,
				followers:  *follPer,
				queue:      *queue,
				readers:    *readers,
				duration:   *duration,
				jsonOut:    *jsonOut,
			}, out)
		}
	}
	if *promote || *replicas >= 0 {
		if *kill || *shards > 1 || *addr != "" {
			return fmt.Errorf("replica modes run their own real daemons: drop -kill/-shards/-addr")
		}
		if *promote && *replicas >= 0 {
			return fmt.Errorf("-promote and -replicas are separate modes")
		}
		if *promote {
			return runPromote(cfg, out)
		}
		return runReplicaBench(replicaBenchConfig{
			killConfig: cfg,
			replicas:   *replicas,
			queue:      *queue,
			readers:    *readers,
			writers:    *writers,
			writeRate:  *wrRate,
			duration:   *duration,
			jsonOut:    *jsonOut,
		}, out)
	}
	if *kill {
		if *shards > 1 {
			return runKillFed(cfg, *shards, out)
		}
		return runKill(cfg, out)
	}
	if *readers < 0 || *writers < 0 || *readers+*writers < 1 || *duration <= 0 {
		return fmt.Errorf("need at least one reader or writer and a positive duration")
	}

	var tgt target
	mode := "snapshot"
	if *addr != "" {
		mode = "remote"
		tgt = httpTarget{base: "http://" + *addr, client: &http.Client{Timeout: 10 * time.Second}}
	} else {
		opts := serve.Options{
			Procs:     *procs,
			Scheduler: *kind,
			Policy:    *policy,
			Speed:     1e-9, // hold virtual time still so the load is the only variable
		}
		walMode := ""
		if *dataDir != "" {
			// WAL-on run: every write is journaled (group-committed per
			// mailbox batch) before it is acknowledged. Compare writes QPS
			// against the same invocation without -data-dir.
			walMode = "+wal"
			if *fsyncOn {
				walMode += "+fsync"
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		if *shards > 1 {
			// Federated self-host: N shards behind one scatter-gather front
			// end, each shard its own scheduler goroutine (and journal
			// directory when -data-dir is set). Sweeping -shards with
			// -readers 0 is the write-scaling experiment (PERFORMANCE.md §3).
			f, err := fed.New(fed.Options{Shards: *shards, Route: *routeF, Shard: opts, DataDir: *dataDir})
			if err != nil {
				cancel()
				return err
			}
			mode = fmt.Sprintf("fed-%d-%s%s", *shards, f.Router().Name(), walMode)
			go func() { done <- f.Run(ctx) }()
			defer func() {
				cancel()
				<-done
				f.Close()
			}()
			tgt = handlerTarget{h: f.Handler()}
		} else {
			opts.Durability = serve.DurabilityOptions{Dir: *dataDir, Fsync: *fsyncOn}
			mode += walMode
			srv, err := serve.New(opts)
			if err != nil {
				cancel()
				return err
			}
			go func() { done <- srv.Run(ctx) }()
			defer func() {
				cancel()
				<-done
				srv.Close()
			}()
			tgt = handlerTarget{h: srv.Handler()}
		}
	}

	ids := []int{1} // remote daemon with unknown state: poll job 1
	if *queue > 0 {
		var err error
		if ids, err = seedQueue(tgt, *procs, *shards, *queue); err != nil {
			return err
		}
	}

	reads := make(chan classStats, 1)
	go func() { reads <- measureReads(tgt, ids, *readers, *duration) }()
	writes := measureWrites(tgt, *writers, 0, closeAfter(*duration))

	rep := report{
		Mode:     mode,
		Duration: duration.Seconds(),
		Readers:  *readers,
		Writers:  *writers,
		Queue:    *queue,
		Reads:    <-reads,
		Writes:   writes,
	}
	if *shards > 1 {
		rep.Shards, rep.Route = *shards, *routeF
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(out, "schedload: %s(%s) procs=%d queue=%d readers=%d writers=%d duration=%s mode=%s\n",
		*kind, *policy, *procs, *queue, *readers, *writers, duration, mode)
	printClass(out, "reads", rep.Reads)
	printClass(out, "writes", rep.Writes)
	return nil
}

// seedQueue builds the state every read has to render and every write's
// scheduling pass has to scan: one full-width job per shard pins the whole
// machine (width routing lands exactly one pin per shard: every pin fills an
// idle shard, which the next placement then sees as busy), then queue jobs
// in the usual width mix wait behind them. The assigned IDs come from the
// responses — a federation hands them out in per-shard congruence classes,
// so they cannot be derived from the submission count.
func seedQueue(tgt target, procs, shards, queue int) ([]int, error) {
	ids := make([]int, 0, queue+shards)
	seed := func(width int, runtime int64, user int) error {
		body, _ := json.Marshal(map[string]any{"width": width, "runtime": runtime, "user": user})
		code, data, err := tgt.do("POST", "/v1/jobs", body)
		if err != nil {
			return err
		}
		if code != http.StatusCreated {
			return fmt.Errorf("seed submit: HTTP %d", code)
		}
		var v struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return fmt.Errorf("seed submit: %w", err)
		}
		ids = append(ids, v.ID)
		return nil
	}
	for s := 0; s < shards; s++ {
		if err := seed(procs, 1_000_000, s+1); err != nil {
			return nil, err
		}
	}
	for i := 0; i < queue; i++ {
		w := 1 + (i%16)*4
		if w > procs {
			w = procs
		}
		if err := seed(w, int64(1000+100*i), 1+i%200); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// measureReads runs the standard read mix (80% status, 10% healthz, 5%
// queue, 5% metrics) against one target with `readers` closed-loop
// goroutines for `duration` and summarizes the samples. Every mode that
// measures reads does it here, so their figures are comparable.
func measureReads(tgt target, ids []int, readers int, duration time.Duration) classStats {
	stopAt := time.Now().Add(duration)
	var wg sync.WaitGroup
	readLat := make([][]time.Duration, readers)
	readErr := make([]int, readers)
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]time.Duration, 0, 1<<16)
			for i := 0; time.Now().Before(stopAt); i++ {
				path := fmt.Sprintf("/v1/jobs/%d", ids[i%len(ids)])
				switch i % 20 {
				case 0:
					path = "/v1/queue"
				case 1:
					path = "/metrics"
				case 2, 3:
					path = "/healthz"
				}
				t0 := time.Now()
				code, _, err := tgt.do("GET", path, nil)
				if err != nil || code != http.StatusOK {
					readErr[r]++
					continue
				}
				lat = append(lat, time.Since(t0))
			}
			readLat[r] = lat
		}()
	}
	wg.Wait()
	return summarize(readLat, readErr, duration)
}

// measureWrites submits jobs to tgt from `writers` goroutines until stop is
// closed and summarizes the acknowledged ones over the time that took. Each
// writer waits for its reply before the next submit; with rate > 0 it also
// waits for its share of `rate` writes a second across all writers. Each
// writer cycles through its own user slice so hash routing spreads the
// stream across shards.
func measureWrites(tgt target, writers, rate int, stop <-chan struct{}) classStats {
	start := time.Now()
	var wg sync.WaitGroup
	writeLat := make([][]time.Duration, writers)
	writeErr := make([]int, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pace <-chan time.Time
			if rate > 0 {
				t := time.NewTicker(time.Duration(writers) * time.Second / time.Duration(rate))
				defer t.Stop()
				pace = t.C
			}
			lat := make([]time.Duration, 0, 1<<12)
			defer func() { writeLat[w] = lat }()
			for i := 0; ; i++ {
				if pace != nil {
					select {
					case <-stop:
						return
					case <-pace:
					}
				}
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(map[string]any{
					"width": 1 + i%8, "runtime": 10_000, "user": 1 + (w*31+i)%200,
				})
				t0 := time.Now()
				code, _, err := tgt.do("POST", "/v1/jobs", body)
				if err != nil || code != http.StatusCreated {
					writeErr[w]++
					continue
				}
				lat = append(lat, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	return summarize(writeLat, writeErr, time.Since(start))
}

// closeAfter returns a channel that is closed once d has passed.
func closeAfter(d time.Duration) <-chan struct{} {
	c := make(chan struct{})
	time.AfterFunc(d, func() { close(c) })
	return c
}

// summarize merges per-worker latency samples into one class report.
func summarize(lats [][]time.Duration, errs []int, window time.Duration) classStats {
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	var nerr int
	for _, e := range errs {
		nerr += e
	}
	cs := classStats{Ops: len(all), Errs: nerr}
	if len(all) == 0 {
		return cs
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	cs.QPS = float64(len(all)) / window.Seconds()
	cs.P50 = float64(percentile(all, 0.50)) / float64(time.Microsecond)
	cs.P99 = float64(percentile(all, 0.99)) / float64(time.Microsecond)
	return cs
}

// percentile reads quantile q from sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func printClass(out io.Writer, name string, cs classStats) {
	if cs.Ops == 0 && cs.Errs == 0 {
		fmt.Fprintf(out, "  %-6s (none)\n", name+":")
		return
	}
	fmt.Fprintf(out, "  %-6s %8d ops  %10.1f QPS  p50=%.0fµs p99=%.0fµs  errors=%d\n",
		name+":", cs.Ops, cs.QPS, cs.P50, cs.P99, cs.Errs)
}
