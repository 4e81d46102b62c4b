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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
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

// options is every schedd flag, parsed once and checked once (validate)
// before a listener or a journal is opened.
type options struct {
	addr             string
	procs            int
	kind, policy     string
	audit            bool
	speed            float64
	swfPath, model   string
	jobs             int
	load             float64
	seed             int64
	est              string
	pprof            bool
	dataDir          string
	ckptInt          time.Duration
	ckptOps          int
	fsync            bool
	shards           int
	route            string
	idStart          int
	idStride         int
	follow           string
	replicaOf        string
	followerID       string
	replPoll         time.Duration
	replWait         time.Duration
	advertise        string
	promoteAfter     int
	leaderHealth     string
	ackQuorum        int
	ackQuorumTimeout time.Duration
	ackQuorumDegrade bool
	readRoute        string
	maxLagOps        uint64
}

// parseOptions reads args into an options value that has passed validate;
// usage and flag-syntax errors are printed to out.
func parseOptions(args []string, out io.Writer) (*options, error) {
	var o options
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port, :0 picks a free port)")
	fs.IntVar(&o.procs, "procs", 128, "machine size in processors")
	fs.StringVar(&o.kind, "sched", "easy", "scheduler kind (see sched.MakerFor)")
	fs.StringVar(&o.policy, "policy", "FCFS", "queue priority policy: FCFS, SJF, XF, LJF, WFP")
	fs.BoolVar(&o.audit, "audit", true, "wrap the live session in the invariant auditor")
	fs.Float64Var(&o.speed, "speed", 1, "virtual seconds per wall second; 0 runs as fast as possible")
	fs.StringVar(&o.swfPath, "swf", "", "preload and replay this SWF trace")
	fs.StringVar(&o.model, "model", "", "preload a synthetic workload: CTC or SDSC")
	fs.IntVar(&o.jobs, "jobs", 1000, "synthetic replay length in jobs")
	fs.Float64Var(&o.load, "load", 0.85, "offered load for synthetic replay")
	fs.Int64Var(&o.seed, "seed", 42, "random seed for synthetic replay")
	fs.StringVar(&o.est, "est", "actual", "estimate model for synthetic replay: keep, exact, actual, R=<f>")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (profiles a live daemon; see PERFORMANCE.md)")
	fs.StringVar(&o.dataDir, "data-dir", "", "write-ahead journal directory; empty runs in-memory only. An existing journal is recovered at boot")
	fs.DurationVar(&o.ckptInt, "checkpoint-interval", time.Minute, "checkpoint at least this often while the journal grows")
	fs.IntVar(&o.ckptOps, "checkpoint-ops", 4096, "checkpoint after this many journal records past the previous checkpoint")
	fs.BoolVar(&o.fsync, "fsync", false, "fsync the journal once per commit batch; off survives process crashes (SIGKILL), on also survives machine crashes")
	fs.IntVar(&o.shards, "shards", 1, "cluster shard count; >1 runs a federation of independent shards of -procs processors each")
	fs.StringVar(&o.route, "route", "hash", "federation routing policy: hash (consistent hashing by user) or width (width-aware least-loaded)")
	fs.IntVar(&o.idStart, "id-start", 1, "first job ID this daemon assigns (process-per-shard federations give each member its own congruence class)")
	fs.IntVar(&o.idStride, "id-stride", 1, "job ID increment; with -id-start i and -id-stride N the daemon only ever assigns IDs ≡ i (mod N)")
	fs.StringVar(&o.follow, "follow", "", "run as a read replica of this leader: its base URL (or a federation shard's .../v1/shards/N), or its journal directory on shared storage")
	fs.StringVar(&o.replicaOf, "replica-of", "", "alias for -follow")
	fs.StringVar(&o.followerID, "follower-id", "", "follower name in the leader's registry (pins the journal retention floor); defaults to follower-<pid>")
	fs.DurationVar(&o.replPoll, "replica-poll", 25*time.Millisecond, "replication pull interval")
	fs.DurationVar(&o.replWait, "replica-wait", 0, "long-poll duration for caught-up replication pulls; 0 polls at -replica-poll only. Long polls cut ack latency, which is what -ack-quorum waits on")
	fs.StringVar(&o.advertise, "advertise", "auto", "read URL this follower registers with its leader for replica-routed reads; \"auto\" advertises the listen address, \"none\" (or empty) registers no read address")
	fs.IntVar(&o.promoteAfter, "promote-after", 0, "self-promote to leader after this many consecutive failed leader health probes; 0 never promotes automatically")
	fs.StringVar(&o.leaderHealth, "leader-health", "", "leader liveness probe base URL for -promote-after (defaults to -follow when it is an HTTP URL)")
	fs.IntVar(&o.ackQuorum, "ack-quorum", 0, "hold each write until this many TTL-live followers have durably acked its batch; 0 acks on leader durability alone")
	fs.DurationVar(&o.ackQuorumTimeout, "ack-quorum-timeout", 2*time.Second, "how long a write waits for the -ack-quorum before degrading or failing")
	fs.BoolVar(&o.ackQuorumDegrade, "ack-quorum-degrade", false, "on quorum timeout, ack on leader durability alone (counted in /v1/debug/replication) instead of failing the write with 503")
	fs.StringVar(&o.readRoute, "read-route", "leader", "read-routing policy: leader (serve reads locally) or replica (spread reads across registered followers; implies the federation front end even at -shards 1)")
	fs.Uint64Var(&o.maxLagOps, "max-lag-ops", 0, "replica routing staleness bound: followers more than this many journal records behind are ejected from read rotation; 0 means the built-in default")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &o, o.validate()
}

// validate folds -replica-of into -follow and refuses every value or
// combination the daemon could only ignore or misread; the layers below
// would turn most of them into a default without a word.
func (o *options) validate() error {
	if o.replicaOf != "" {
		if o.follow != "" && o.follow != o.replicaOf {
			return fmt.Errorf("-follow and -replica-of name different leaders (%q vs %q)", o.follow, o.replicaOf)
		}
		o.follow = o.replicaOf
	}
	_, routeErr := fed.RouterByName(o.route, o.shards)
	follower, routed := o.follow != "", o.readRoute == "replica"
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{o.shards < 1, fmt.Sprintf("-shards must be at least 1, have %d", o.shards)},
		{o.idStart < 1 || o.idStride < 1, "-id-start and -id-stride must be at least 1"},
		{o.shards > 1 && (o.idStart != 1 || o.idStride != 1), "-id-start/-id-stride are for process-per-shard members; an in-process federation (-shards) assigns congruence classes itself"},
		{routeErr != nil, fmt.Sprintf("-route must be hash or width, have %q", o.route)},
		{!routed && o.readRoute != "leader", fmt.Sprintf("-read-route must be leader or replica, have %q", o.readRoute)},
		{!(o.speed >= 0) || math.IsInf(o.speed, 1), fmt.Sprintf("-speed must be a finite number of virtual seconds per wall second, or 0 for as fast as possible; have %v", o.speed)},
		{!(o.load > 0), fmt.Sprintf("-load must be a positive number, have %v", o.load)},
		{o.ckptOps < 0, fmt.Sprintf("-checkpoint-ops must not be negative, have %d", o.ckptOps)},
		{o.ckptInt < 0, fmt.Sprintf("-checkpoint-interval must not be negative, have %v", o.ckptInt)},
		{o.replPoll < 0, fmt.Sprintf("-replica-poll must not be negative, have %v", o.replPoll)},
		{o.replWait < 0, fmt.Sprintf("-replica-wait must not be negative, have %v", o.replWait)},
		{o.promoteAfter < 0, fmt.Sprintf("-promote-after must not be negative, have %d", o.promoteAfter)},
		{o.ackQuorum < 0, fmt.Sprintf("-ack-quorum must not be negative, have %d", o.ackQuorum)},
		{o.ackQuorumTimeout < 0, fmt.Sprintf("-ack-quorum-timeout must not be negative, have %v", o.ackQuorumTimeout)},
		{o.ackQuorum > 0 && o.dataDir == "", "-ack-quorum counts followers that acked a journal batch; it needs -data-dir"},
		{o.fsync && o.dataDir == "", "-fsync syncs the journal; it needs -data-dir"},
		{follower && o.shards > 1, "-follow replicates one leader; run one follower per federation shard against /v1/shards/N/wal instead of combining with -shards"},
		{follower && (o.swfPath != "" || o.model != ""), "a follower's workload comes from its leader; drop -swf/-model"},
		{follower && routed, "-read-route is a front-end (leader-side) policy; a follower serves its own reads"},
	} {
		if c.bad {
			return errors.New(c.msg)
		}
	}
	return nil
}

// run builds the server from args and serves until ctx is cancelled. When
// ready is non-nil, the listen URL is sent on it once the API is up (tests
// and the smoke script use this instead of parsing logs).
func run(ctx context.Context, args []string, out io.Writer, ready chan<- string) error {
	o, err := parseOptions(args, out)
	if err != nil {
		return err
	}
	so := serve.Options{
		Procs:     o.procs,
		Scheduler: o.kind,
		Policy:    o.policy,
		Audit:     o.audit,
		Speed:     o.speed,
		Debug:     o.pprof,
		IDStart:   o.idStart,
		IDStride:  o.idStride,
		Durability: serve.DurabilityOptions{
			Fsync:           o.fsync,
			CheckpointEvery: o.ckptInt,
			CheckpointOps:   o.ckptOps,
			AckQuorum:       o.ackQuorum,
			QuorumTimeout:   o.ackQuorumTimeout,
			QuorumDegrade:   o.ackQuorumDegrade,
		},
	}
	routed := o.readRoute == "replica"

	// svc is the daemon behind the HTTP listener: a single serve.Server, a
	// federation front end over -shards of them, or a follower replica.
	var svc service
	recovered := false
	if o.follow != "" {
		id := o.followerID
		if id == "" {
			id = fmt.Sprintf("follower-%d", os.Getpid())
		}
		// Listen before building the replica so "-advertise auto" can
		// register the real listen address (which :0 only yields here).
		ln, err := net.Listen("tcp", o.addr)
		if err != nil {
			return err
		}
		url := "http://" + ln.Addr().String()
		adv := o.advertise
		switch adv {
		case "auto":
			adv = url
		case "none":
			adv = ""
		}
		rep, err := replica.New(replica.Options{
			Source:      o.follow,
			Serve:       so,
			ID:          id,
			Advertise:   adv,
			Wait:        o.replWait,
			PromoteDir:  o.dataDir,
			Fsync:       o.fsync,
			Poll:        o.replPoll,
			HealthURL:   o.leaderHealth,
			AutoPromote: o.promoteAfter,
		})
		if err != nil {
			ln.Close()
			return err
		}
		svc = rep
		defer svc.Close()

		fmt.Fprintf(out, "schedd: %s(%s) on %d procs, following %s, listening on %s\n",
			o.kind, o.policy, o.procs, o.follow, url)
		if ready != nil {
			ready <- url
		}
		return serveLoop(ctx, out, ln, svc)
	}
	if o.shards > 1 || routed {
		f, err := fed.New(fed.Options{Shards: o.shards, Route: o.route, Shard: so, DataDir: o.dataDir,
			ReadRoute: o.readRoute, MaxLagOps: o.maxLagOps})
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
				i, fed.ShardDir(o.dataDir, i), ri.CheckpointSeq, ri.CheckpointOps, ri.TailRecords)
			if ri.TruncatedBytes > 0 {
				fmt.Fprintf(out, ", truncated %d bytes of torn tail", ri.TruncatedBytes)
			}
			fmt.Fprintln(out)
			for _, w := range ri.Warnings {
				fmt.Fprintf(out, "schedd: shard %d recovery warning: %s\n", i, w)
			}
		}
	} else {
		so.Durability.Dir = o.dataDir
		srv, err := serve.New(so)
		if err != nil {
			return err
		}
		svc = srv
		if ri := srv.Recovery(); ri != nil && ri.Replayed() {
			recovered = true
			fmt.Fprintf(out, "schedd: recovered %s: checkpoint seq %d (%d ops) + %d journal records",
				o.dataDir, ri.CheckpointSeq, ri.CheckpointOps, ri.TailRecords)
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
		if o.swfPath != "" || o.model != "" {
			fmt.Fprintln(out, "schedd: journal recovered, skipping -swf/-model preload")
		}
	} else {
		replay, err := loadReplay(o.swfPath, o.model, o.jobs, o.seed, o.load, o.est, o.procs)
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

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	url := "http://" + ln.Addr().String()
	routeNote := ""
	if routed {
		routeNote = ", read-route replica"
	}
	if o.shards > 1 {
		fmt.Fprintf(out, "schedd: %d×%s(%s) shards, %d procs each (%d total), route %s%s, speed %g, listening on %s\n",
			o.shards, o.kind, o.policy, o.procs, o.shards*o.procs, o.route, routeNote, o.speed, url)
	} else {
		fmt.Fprintf(out, "schedd: %s(%s) on %d procs%s, speed %g, listening on %s\n",
			o.kind, o.policy, o.procs, routeNote, o.speed, url)
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

// Bounds on what a connection may hold without sending anything: the request
// line and headers must arrive within readHeaderTimeout of the first byte
// (or of the accept, on a new connection), and a keep-alive connection with
// no request in flight is closed after idleTimeout. Neither cuts a response
// short, so the /v1/wal long poll and a slow queue listing are unaffected.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serveLoop runs the HTTP listener and the scheduler (or replication) loop
// until ctx is cancelled, then shuts both down.
func serveLoop(ctx context.Context, out io.Writer, ln net.Listener, svc service) error {
	hs := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
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
