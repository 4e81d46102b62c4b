// Command schedload is a closed-loop load generator for the scheduling
// daemon: it seeds a busy machine with a standing queue, then hammers the
// service over TCP with concurrent reader and writer goroutines for a fixed
// duration and reports sustained throughput and latency percentiles per
// class. It drives only real daemons: one the user started (-addr), or the
// schedd processes it starts itself (-drill, -replicas, -ack-quorum).
//
//	schedload -addr 127.0.0.1:8080 -readers 8 -writers 1 -duration 5s
//	schedload -addr 127.0.0.1:8080 -queue 0 -readers 0 -writers 16   # write QPS, no seeding
//	schedload -drill all -schedd ./schedd     # SIGKILL real daemons mid-burst, every topology
//	schedload -replicas 2 -schedd ./schedd       # leader + 2 read replicas, read QPS
//	schedload -replicas 2 -read-route replica -schedd ./schedd   # the same behind a routing front end
//	schedload -ack-quorum 2 -schedd ./schedd     # write QPS at ack-quorum 0, 1 and 2
//
// Journal and federation A/Bs are a daemon's own flags: start
// `schedd -speed 1e-9 [-data-dir D [-fsync]] [-shards N -route R]` (the
// speed holds virtual time still, so the load is the only variable) and
// point -addr at it, with -shards N so the seed pins every shard.
//
// The crash drill (-drill restart|shards|promote|quorum|all) runs one
// kill-and-verify cycle over a checked-in table of real-process topologies:
// a restarted leader, process-per-shard members, a self-promoting follower,
// and a quorum-acknowledging front end that loses a follower mid-burst.
// Every cycle proves no acknowledged write was lost against an in-process
// shadow replay of each journal; drill.go has the table and the steps.
//
// The reader mix models real polling traffic: mostly per-job status probes
// (every client polls its own job), a steady trickle of health checks and
// metric scrapes, and occasional whole-queue listings.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Status("schedload", run(os.Args[1:], os.Stdout), os.Stderr))
}

// httpTarget talks to a live daemon over TCP; do returns the status and
// the body, from which seedQueue reads the assigned job IDs.
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
	Reads    classStats `json:"reads"`
	Writes   classStats `json:"writes"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("schedload", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr     = fs.String("addr", "", "load a running daemon at host:port (start it with -speed 1e-9 to hold virtual time still)")
		procs    = fs.Int("procs", 64, "machine size: the width of the seed's pins, and -procs of the daemons -drill, -replicas and -ack-quorum start")
		kind     = fs.String("sched", "easy", "-drill, -replicas, -ack-quorum: scheduler kind of the daemons they start")
		policy   = fs.String("policy", "FCFS", "-drill, -replicas, -ack-quorum: queue priority policy of the daemons they start")
		queue    = fs.Int("queue", 256, "standing queue depth to seed before measuring")
		readers  = fs.Int("readers", 8, "concurrent reader goroutines")
		writers  = fs.Int("writers", 1, "concurrent writer (submit) goroutines")
		duration = fs.Duration("duration", 5*time.Second, "measurement window")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON")
		dataDir  = fs.String("data-dir", "", "-drill, -replicas, -ack-quorum: root of the journals of the daemons they start (default: a temporary directory)")
		fsyncOn  = fs.Bool("fsync", false, "-drill, -replicas, -ack-quorum: the daemons they start journal with one fsync per commit batch")
		drillF   = fs.String("drill", "", "crash drill over real schedd processes: restart, shards, promote, quorum or all (see drill.go); needs -schedd")
		schedd   = fs.String("schedd", "schedd", "-drill and the real-daemon benches: path to the schedd binary")
		iters    = fs.Int("iters", 3, "-drill: kill/recover cycles per row")
		burst    = fs.Duration("burst", 300*time.Millisecond, "-drill: write burst per cycle")
		shards   = fs.Int("shards", 1, "-addr: the target's shard count, so the seed pins every shard; -replicas with -read-route replica: federate this many shards of -procs processors each behind one front end")
		replicas = fs.Int("replicas", -1, "read bench: spawn a real leader plus this many followers per shard (GOMAXPROCS=1 each) under a paced writer stream and measure each process's read capacity in sequential phases; 0 is the single-daemon baseline; needs -schedd")
		readRt   = fs.String("read-route", "", "read bench: replica puts the followers behind a front end with -read-route replica over -shards shards, pulling over HTTP, and adds a last phase that reads through it")
		ackQ     = fs.Int("ack-quorum", -1, "quorum sweep: measure write QPS at every ack-quorum level 0..N with N real followers attached; needs -schedd")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, have %d", *shards)
	}
	cfg := config{
		scheddBin: *schedd,
		dir:       *dataDir,
		procs:     *procs,
		kind:      *kind,
		policy:    *policy,
		fsync:     *fsyncOn,
		writers:   max(*writers, 1),
		iters:     *iters,
		burst:     *burst,
		queue:     *queue,
		readers:   *readers,
		duration:  *duration,
		jsonOut:   *jsonOut,
	}
	// own is the mode that spawns its own daemons, if any; at most one may.
	own := ""
	for _, m := range []struct {
		flag string
		on   bool
	}{{"-drill", *drillF != ""}, {"-replicas", *replicas >= 0}, {"-ack-quorum", *ackQ >= 0}} {
		if m.on && own != "" {
			return fmt.Errorf("%s and %s are separate modes", own, m.flag)
		} else if m.on {
			own = m.flag
		}
	}
	routed := *readRt != ""
	if routed && (own != "-replicas" || *readRt != "replica") {
		return fmt.Errorf("-read-route %q: only -replicas N -read-route replica routes reads", *readRt)
	}
	if own != "" && (*addr != "" || (*shards > 1 && !routed)) {
		return fmt.Errorf("%s runs its own daemons: drop -addr and -shards", own)
	}
	if own != "" && cfg.dir == "" {
		dir, err := os.MkdirTemp("", "schedload-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.dir = dir
	}
	switch own {
	case "-drill":
		return runDrills(cfg, *drillF, out)
	case "-replicas":
		return runReadBench(cfg, *replicas, *shards, routed, out)
	case "-ack-quorum":
		return runQuorumBench(cfg, *ackQ, out)
	}
	if *addr == "" {
		return fmt.Errorf("no daemon to load: give -addr host:port, or one of -drill, -replicas and -ack-quorum to start real ones")
	}
	if *readers < 0 || *writers < 0 || *readers+*writers < 1 || *duration <= 0 {
		return fmt.Errorf("need at least one reader or writer and a positive duration")
	}
	tgt := httpTarget{base: "http://" + *addr, client: &http.Client{Timeout: 10 * time.Second}}

	ids := []int{1} // unseeded daemon of unknown state: poll job 1
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
		Mode:     "remote",
		Duration: duration.Seconds(),
		Readers:  *readers,
		Writers:  *writers,
		Queue:    *queue,
		Reads:    <-reads,
		Writes:   writes,
	}
	if *shards > 1 {
		rep.Shards = *shards
	}
	if *jsonOut {
		return writeJSON(out, rep)
	}
	fmt.Fprintf(out, "schedload: addr=%s procs=%d queue=%d readers=%d writers=%d duration=%s mode=remote\n",
		*addr, *procs, *queue, *readers, *writers, duration)
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
func seedQueue(tgt httpTarget, procs, shards, queue int) ([]int, error) {
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
func measureReads(tgt httpTarget, ids []int, readers int, duration time.Duration) classStats {
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
func measureWrites(tgt httpTarget, writers, rate int, stop <-chan struct{}) classStats {
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
