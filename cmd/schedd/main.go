// Command schedd runs the backfilling simulator as an online scheduling
// service: a daemon owning one incremental simulation session, an HTTP/JSON
// API for submitting, cancelling and querying jobs (with start-time
// forecasts), and Prometheus metrics. Virtual time runs in real time, at an
// N× acceleration, or as fast as possible.
//
//	schedd -procs 128 -sched easy -policy SJF -addr 127.0.0.1:8080
//	schedd -procs 430 -sched conservative -swf trace.swf -speed 60
//	schedd -procs 128 -model SDSC -jobs 2000 -speed 0   # replay flat out
//	schedd -procs 128 -data-dir /var/lib/schedd        # durable daemon
//	schedd -procs 128 -shards 4 -route width           # 4-cluster federation
//
// With -shards N > 1 the daemon becomes a federation front end: N
// independent cluster shards of -procs processors each behind the same
// HTTP surface, submissions routed by -route (consistent hashing by user,
// or width-aware least-loaded placement), queue listings and metrics
// scatter-gathered from the shards' lock-free snapshots. With -data-dir
// each shard journals into its own shard-NNN subdirectory and recovers
// independently at boot.
//
// With -data-dir every accepted mutation is journaled to a write-ahead log
// before it is acknowledged, and a restart recovers the exact pre-crash
// state (newest checkpoint plus journal tail; see internal/wal). -fsync
// extends the guarantee from process crashes to machine crashes at the
// cost of one sync per commit batch.
//
// With -follow the daemon runs as a read replica of another schedd (see
// internal/replica); with -ack-quorum K a durable leader additionally
// holds each write until K followers have acked it, and with
// -read-route replica the front end spreads reads across the registered
// followers (see internal/fed and OPERATIONS.md for topology recipes).
//
// SIGINT/SIGTERM drain gracefully: admissions stop, the remaining schedule
// fast-forwards to completion, and the exit status reflects whether the
// audited run finished clean.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fed"
	"repro/internal/job"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/swf"
	"repro/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

// run builds the server from args and serves until ctx is cancelled. When
// ready is non-nil, the listen URL is sent on it once the API is up (tests
// and the smoke script use this instead of parsing logs).
func run(ctx context.Context, args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port, :0 picks a free port)")
		procs    = fs.Int("procs", 128, "machine size in processors")
		kind     = fs.String("sched", "easy", "scheduler kind (see sched.MakerFor)")
		policy   = fs.String("policy", "FCFS", "queue priority policy: FCFS, SJF, XF, LJF, WFP")
		audit    = fs.Bool("audit", true, "wrap the live session in the invariant auditor")
		speed    = fs.Float64("speed", 1, "virtual seconds per wall second; 0 runs as fast as possible")
		swfPath  = fs.String("swf", "", "preload and replay this SWF trace")
		model    = fs.String("model", "", "preload a synthetic workload: CTC or SDSC")
		jobs     = fs.Int("jobs", 1000, "synthetic replay length in jobs")
		load     = fs.Float64("load", 0.85, "offered load for synthetic replay")
		seed     = fs.Int64("seed", 42, "random seed for synthetic replay")
		est      = fs.String("est", "actual", "estimate model for synthetic replay: keep, exact, actual, R=<f>")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profiles a live daemon; see PERFORMANCE.md)")
		dataDir  = fs.String("data-dir", "", "write-ahead journal directory; empty runs in-memory only. An existing journal is recovered at boot")
		ckptInt  = fs.Duration("checkpoint-interval", time.Minute, "checkpoint at least this often while the journal grows")
		ckptOps  = fs.Int("checkpoint-ops", 4096, "checkpoint after this many journal records past the previous checkpoint")
		fsyncOn  = fs.Bool("fsync", false, "fsync the journal once per commit batch; off survives process crashes (SIGKILL), on also survives machine crashes")
		shards   = fs.Int("shards", 1, "cluster shard count; >1 runs a federation of independent shards of -procs processors each")
		route    = fs.String("route", "hash", "federation routing policy: hash (consistent hashing by user) or width (width-aware least-loaded)")
		idStart  = fs.Int("id-start", 1, "first job ID this daemon assigns (process-per-shard federations give each member its own congruence class)")
		idStride = fs.Int("id-stride", 1, "job ID increment; with -id-start i and -id-stride N the daemon only ever assigns IDs ≡ i (mod N)")
		follow   = fs.String("follow", "", "run as a read replica of this leader: its base URL (or a federation shard's .../v1/shards/N), or its journal directory on shared storage")
		replOf   = fs.String("replica-of", "", "alias for -follow")
		replID   = fs.String("follower-id", "", "follower name in the leader's registry (pins the journal retention floor); defaults to follower-<pid>")
		replPoll = fs.Duration("replica-poll", 25*time.Millisecond, "replication pull interval")
		replWait = fs.Duration("replica-wait", 0, "long-poll duration for caught-up replication pulls; 0 polls at -replica-poll only. Long polls cut ack latency, which is what -ack-quorum waits on")
		advert   = fs.String("advertise", "auto", "read URL this follower registers with its leader for replica-routed reads; \"auto\" advertises the listen address, \"none\" (or empty) registers no read address")
		promAft  = fs.Int("promote-after", 0, "self-promote to leader after this many consecutive failed leader health probes; 0 never promotes automatically")
		leadURL  = fs.String("leader-health", "", "leader liveness probe base URL for -promote-after (defaults to -follow when it is an HTTP URL)")
		ackQ     = fs.Int("ack-quorum", 0, "hold each write until this many TTL-live followers have durably acked its batch; 0 acks on leader durability alone")
		ackQTo   = fs.Duration("ack-quorum-timeout", 2*time.Second, "how long a write waits for the -ack-quorum before degrading or failing")
		ackQDeg  = fs.Bool("ack-quorum-degrade", false, "on quorum timeout, ack on leader durability alone (counted in /v1/debug/replication) instead of failing the write with 503")
		readRt   = fs.String("read-route", "leader", "read-routing policy: leader (serve reads locally) or replica (spread reads across registered followers; implies the federation front end even at -shards 1)")
		maxLag   = fs.Uint64("max-lag-ops", 0, "replica routing staleness bound: followers more than this many journal records behind are ejected from read rotation; 0 means the built-in default")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, have %d", *shards)
	}

	if *idStart < 1 || *idStride < 1 {
		return fmt.Errorf("-id-start and -id-stride must be at least 1")
	}
	if *shards > 1 && (*idStart != 1 || *idStride != 1) {
		return fmt.Errorf("-id-start/-id-stride are for process-per-shard members; an in-process federation (-shards) assigns congruence classes itself")
	}

	so := serve.Options{
		Procs:     *procs,
		Scheduler: *kind,
		Policy:    *policy,
		Audit:     *audit,
		Speed:     *speed,
		Debug:     *pprofOn,
		IDStart:   *idStart,
		IDStride:  *idStride,
		Durability: serve.DurabilityOptions{
			Fsync:           *fsyncOn,
			CheckpointEvery: *ckptInt,
			CheckpointOps:   *ckptOps,
			AckQuorum:       *ackQ,
			QuorumTimeout:   *ackQTo,
			QuorumDegrade:   *ackQDeg,
		},
	}
	switch *readRt {
	case "leader", "replica":
	default:
		return fmt.Errorf("-read-route must be leader or replica, have %q", *readRt)
	}
	routed := *readRt == "replica"

	// svc is the daemon behind the HTTP listener: a single serve.Server, a
	// federation front end over -shards of them, or a follower replica.
	var svc service
	if *replOf != "" {
		if *follow != "" && *follow != *replOf {
			return fmt.Errorf("-follow and -replica-of name different leaders (%q vs %q)", *follow, *replOf)
		}
		*follow = *replOf
	}

	recovered := false
	if *follow != "" {
		if *shards > 1 {
			return fmt.Errorf("-follow replicates one leader; run one follower per federation shard against /v1/shards/N/wal instead of combining with -shards")
		}
		if *swfPath != "" || *model != "" {
			return fmt.Errorf("a follower's workload comes from its leader; drop -swf/-model")
		}
		if routed {
			return fmt.Errorf("-read-route is a front-end (leader-side) policy; a follower serves its own reads")
		}
		id := *replID
		if id == "" {
			id = fmt.Sprintf("follower-%d", os.Getpid())
		}
		// Listen before building the replica so "-advertise auto" can
		// register the real listen address (which :0 only yields here).
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		url := "http://" + ln.Addr().String()
		adv := *advert
		switch adv {
		case "auto":
			adv = url
		case "none":
			adv = ""
		}
		rep, err := replica.New(replica.Options{
			Source:      *follow,
			Serve:       so,
			ID:          id,
			Advertise:   adv,
			Wait:        *replWait,
			PromoteDir:  *dataDir,
			Fsync:       *fsyncOn,
			Poll:        *replPoll,
			HealthURL:   *leadURL,
			AutoPromote: *promAft,
		})
		if err != nil {
			ln.Close()
			return err
		}
		svc = rep
		defer svc.Close()

		fmt.Fprintf(out, "schedd: %s(%s) on %d procs, following %s, listening on %s\n",
			*kind, *policy, *procs, *follow, url)
		if ready != nil {
			ready <- url
		}
		return serveLoop(ctx, out, ln, svc)
	}
	if *shards > 1 || routed {
		f, err := fed.New(fed.Options{Shards: *shards, Route: *route, Shard: so, DataDir: *dataDir,
			ReadRoute: *readRt, MaxLagOps: *maxLag})
		if err != nil {
			return err
		}
		svc = f
		for i, sh := range f.Shards() {
			ri := sh.Recovery()
			if ri == nil || !ri.Replayed() {
				continue
			}
			recovered = true
			fmt.Fprintf(out, "schedd: shard %d recovered %s: checkpoint seq %d (%d ops) + %d journal records",
				i, fed.ShardDir(*dataDir, i), ri.CheckpointSeq, ri.CheckpointOps, ri.TailRecords)
			if ri.TruncatedBytes > 0 {
				fmt.Fprintf(out, ", truncated %d bytes of torn tail", ri.TruncatedBytes)
			}
			fmt.Fprintln(out)
			for _, w := range ri.Warnings {
				fmt.Fprintf(out, "schedd: shard %d recovery warning: %s\n", i, w)
			}
		}
	} else {
		so.Durability.Dir = *dataDir
		srv, err := serve.New(so)
		if err != nil {
			return err
		}
		svc = srv
		if ri := srv.Recovery(); ri != nil && ri.Replayed() {
			recovered = true
			fmt.Fprintf(out, "schedd: recovered %s: checkpoint seq %d (%d ops) + %d journal records",
				*dataDir, ri.CheckpointSeq, ri.CheckpointOps, ri.TailRecords)
			if ri.TruncatedBytes > 0 {
				fmt.Fprintf(out, ", truncated %d bytes of torn tail", ri.TruncatedBytes)
			}
			fmt.Fprintln(out)
			for _, w := range ri.Warnings {
				fmt.Fprintf(out, "schedd: recovery warning: %s\n", w)
			}
		}
	}
	defer svc.Close()

	if recovered {
		// The journals already hold this daemon's history (including any
		// preload from its first boot); preloading again would double the
		// workload.
		if *swfPath != "" || *model != "" {
			fmt.Fprintln(out, "schedd: journal recovered, skipping -swf/-model preload")
		}
	} else {
		replay, err := loadReplay(*swfPath, *model, *jobs, *seed, *load, *est, *procs)
		if err != nil {
			return err
		}
		if len(replay) > 0 {
			if err := svc.Preload(replay); err != nil {
				return err
			}
			fmt.Fprintf(out, "schedd: preloaded %d jobs for replay\n", len(replay))
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	url := "http://" + ln.Addr().String()
	routeNote := ""
	if routed {
		routeNote = ", read-route replica"
	}
	if *shards > 1 {
		fmt.Fprintf(out, "schedd: %d×%s(%s) shards, %d procs each (%d total), route %s%s, speed %g, listening on %s\n",
			*shards, *kind, *policy, *procs, *shards**procs, *route, routeNote, *speed, url)
	} else {
		fmt.Fprintf(out, "schedd: %s(%s) on %d procs%s, speed %g, listening on %s\n",
			*kind, *policy, *procs, routeNote, *speed, url)
	}
	if ready != nil {
		ready <- url
	}
	return serveLoop(ctx, out, ln, svc)
}

// service is the daemon behind the HTTP listener, whichever shape it takes.
type service interface {
	Preload([]*job.Job) error
	Run(context.Context) error
	Close() error
	Handler() http.Handler
}

// serveLoop runs the HTTP listener and the scheduler (or replication) loop
// until ctx is cancelled, then shuts both down.
func serveLoop(ctx context.Context, out io.Writer, ln net.Listener, svc service) error {
	hs := &http.Server{Handler: svc.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	runErr := make(chan error, 1)
	go func() { runErr <- svc.Run(ctx) }()

	var firstErr error
	select {
	case err := <-httpErr:
		// Listener died under us; bring the scheduler down too.
		firstErr = err
		<-ctx.Done()
		<-runErr
	case err := <-runErr:
		// Normal path: signal received, scheduler drained.
		firstErr = err
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr == nil {
		fmt.Fprintln(out, "schedd: drained clean")
	}
	return firstErr
}

// loadReplay builds the optional preloaded workload: an SWF trace, or a
// synthetic model with rewritten estimates.
func loadReplay(swfPath, model string, jobs int, seed int64, load float64, est string, procs int) ([]*job.Job, error) {
	switch {
	case swfPath != "":
		tr, err := swf.Open(swfPath, swf.Options{MaxJobs: jobs})
		if err != nil {
			return nil, err
		}
		return tr.Jobs, nil
	case model != "":
		m, err := workload.ByName(model, load)
		if err != nil {
			return nil, err
		}
		if m.Procs != procs {
			return nil, fmt.Errorf("model %s is calibrated for %d procs, daemon has %d (pass -procs %d)",
				model, m.Procs, procs, m.Procs)
		}
		js, err := m.Generate(jobs, seed)
		if err != nil {
			return nil, err
		}
		em, err := workload.EstimateModelByName(est)
		if err != nil {
			return nil, err
		}
		return workload.ApplyEstimates(js, em, seed+1), nil
	default:
		return nil, nil
	}
}
