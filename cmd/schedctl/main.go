// Command schedctl is the command-line client for the schedd scheduling
// daemon. It mirrors the classic batch-system front-ends: submit a job,
// query its status (including the predicted start time for queued jobs),
// cancel it, and inspect the whole queue.
//
//	schedctl submit -width 16 -runtime 3600
//	schedctl stat 42
//	schedctl cancel 42
//	schedctl queue
//	schedctl info         # durability: journal position, replay history, checkpoint age
//	schedctl shards       # federation only: per-shard state table
//	schedctl replication  # leader/follower position, lag, registered followers
//	schedctl routing      # federation read routing: follower rotation, lag, ejections
//	schedctl promote      # promote a follower replica to leader
//
// The daemon address comes from -addr or the SCHEDD_ADDR environment
// variable, defaulting to http://127.0.0.1:8080.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedctl:", err)
		os.Exit(1)
	}
}

// jobView mirrors serve.JobView; schedctl decodes only what it prints.
type jobView struct {
	ID             int      `json:"id"`
	State          string   `json:"state"`
	Width          int      `json:"width"`
	Runtime        int64    `json:"runtime"`
	Estimate       int64    `json:"estimate"`
	Arrival        int64    `json:"arrival"`
	Category       string   `json:"category"`
	Start          *int64   `json:"start"`
	End            *int64   `json:"end"`
	PredictedStart *int64   `json:"predicted_start"`
	Slowdown       *float64 `json:"slowdown"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("schedctl", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", defaultAddr(), "schedd base URL")
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: schedctl [-addr URL] <submit|stat|cancel|queue|info|shards|replication|routing|promote|health|metrics> [args]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	c := &client{base: strings.TrimRight(*addr, "/"), out: out}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "submit":
		return c.submit(rest)
	case "stat":
		return c.stat(rest)
	case "cancel":
		return c.cancel(rest)
	case "queue":
		return c.queue()
	case "info":
		return c.info()
	case "shards":
		return c.shards()
	case "replication":
		return c.replication()
	case "routing":
		return c.routing()
	case "promote":
		return c.promote()
	case "health":
		return c.passthrough("/healthz")
	case "metrics":
		return c.passthrough("/metrics")
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func defaultAddr() string {
	if v := os.Getenv("SCHEDD_ADDR"); v != "" {
		return v
	}
	return "http://127.0.0.1:8080"
}

type client struct {
	base string
	out  io.Writer
}

// do issues one request and decodes the JSON response into v (when
// non-nil), converting non-2xx statuses into the server's error message.
func (c *client) do(method, path string, body io.Reader, v any) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s (status %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

func (c *client) submit(args []string) error {
	fs := flag.NewFlagSet("schedctl submit", flag.ContinueOnError)
	fs.SetOutput(c.out)
	var (
		width   = fs.Int("width", 1, "processors requested")
		runtime = fs.Int64("runtime", 60, "actual runtime in seconds (simulation ground truth)")
		est     = fs.Int64("est", 0, "user estimate in seconds (0 means exact)")
		user    = fs.Int("user", 0, "submitting user ID")
		n       = fs.Int("n", 1, "submit this many identical jobs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for i := 0; i < *n; i++ {
		body, _ := json.Marshal(map[string]any{
			"width": *width, "runtime": *runtime, "estimate": *est, "user": *user,
		})
		var v jobView
		if err := c.do("POST", "/v1/jobs", bytes.NewReader(body), &v); err != nil {
			return err
		}
		c.printJob(v)
	}
	return nil
}

func (c *client) stat(args []string) error {
	id, err := oneID(args)
	if err != nil {
		return err
	}
	var v jobView
	if err := c.do("GET", "/v1/jobs/"+strconv.Itoa(id), nil, &v); err != nil {
		return err
	}
	c.printJob(v)
	return nil
}

func (c *client) cancel(args []string) error {
	id, err := oneID(args)
	if err != nil {
		return err
	}
	if err := c.do("DELETE", "/v1/jobs/"+strconv.Itoa(id), nil, nil); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "job %d cancelled\n", id)
	return nil
}

func (c *client) queue() error {
	var q struct {
		Now       int64     `json:"now"`
		Scheduler string    `json:"scheduler"`
		Procs     int       `json:"procs"`
		ProcsBusy int       `json:"procs_busy"`
		Queued    []jobView `json:"queued"`
		Running   []jobView `json:"running"`
		Completed int64     `json:"completed"`
		Cancelled int64     `json:"cancelled"`
	}
	if err := c.do("GET", "/v1/queue", nil, &q); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%s  t=%d  procs %d/%d busy  completed %d  cancelled %d\n",
		q.Scheduler, q.Now, q.ProcsBusy, q.Procs, q.Completed, q.Cancelled)
	if len(q.Running) > 0 {
		fmt.Fprintf(c.out, "running (%d):\n", len(q.Running))
		for _, v := range q.Running {
			c.printJob(v)
		}
	}
	if len(q.Queued) > 0 {
		fmt.Fprintf(c.out, "queued (%d):\n", len(q.Queued))
		for _, v := range q.Queued {
			c.printJob(v)
		}
	}
	return nil
}

// info renders GET /v1/debug/durability: whether the daemon journals its
// state, where the journal stands, how large its replay history is, and
// how stale the last checkpoint is; GET /v1/debug/passes: how often the
// scheduler's passes were skipped, settled by arrivals alone, or full; and
// GET /v1/debug/forecast: how many forecasts were full dry-runs and what
// they took.
func (c *client) info() error {
	var d struct {
		Enabled          bool    `json:"enabled"`
		Dir              string  `json:"dir"`
		Fsync            bool    `json:"fsync"`
		SnapshotVersion  uint64  `json:"snapshot_version"`
		SimNow           int64   `json:"sim_now"`
		StateHash        string  `json:"state_hash"`
		Seq              uint64  `json:"seq"`
		CheckpointSeq    uint64  `json:"checkpoint_seq"`
		TailRecords      uint64  `json:"tail_records"`
		CheckpointAgeSec float64 `json:"checkpoint_age_sec"`
		InFlight         bool    `json:"checkpoint_in_flight"`
		LoopUS           float64 `json:"checkpoint_loop_us"`
		WriteUS          float64 `json:"checkpoint_write_us"`
		HistoryRecords   int64   `json:"history_records"`
		HistoryBytes     int64   `json:"history_bytes"`
		Recovery         *struct {
			CheckpointSeq  uint64   `json:"checkpoint_seq"`
			CheckpointOps  int      `json:"checkpoint_ops"`
			TailRecords    int      `json:"tail_records"`
			TruncatedBytes int64    `json:"truncated_bytes"`
			Warnings       []string `json:"warnings"`
		} `json:"recovery"`
	}
	if err := c.do("GET", "/v1/debug/durability", nil, &d); err != nil {
		return err
	}
	var p struct {
		Scheduler string `json:"scheduler"`
		Skipped   int64  `json:"skipped"`
		Settled   int64  `json:"settled"`
		Full      int64  `json:"full"`
	}
	if err := c.do("GET", "/v1/debug/passes", nil, &p); err != nil {
		return err
	}
	var f struct {
		DryRuns   int64   `json:"dry_runs"`
		Extends   int64   `json:"extends"`
		Full      int64   `json:"full"`
		FullUS    float64 `json:"full_us"`
		FullMaxUS float64 `json:"full_max_us"`
	}
	if err := c.do("GET", "/v1/debug/forecast", nil, &f); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "snapshot version %d  t=%d  state hash %s\n", d.SnapshotVersion, d.SimNow, d.StateHash)
	fmt.Fprintf(c.out, "scheduler %s passes: %d skipped, %d settled by arrivals alone, %d full\n",
		p.Scheduler, p.Skipped, p.Settled, p.Full)
	fmt.Fprintf(c.out, "forecasts: %d, %d by extension, %d full dry-runs taking %.0f µs in all and %.0f µs at most\n",
		f.DryRuns, f.Extends, f.Full, f.FullUS, f.FullMaxUS)
	if d.HistoryRecords > 0 {
		fmt.Fprintf(c.out, "replay history: %d records in %d bytes (what a checkpoint or a fresh-directory promotion writes)\n",
			d.HistoryRecords, d.HistoryBytes)
	}
	if !d.Enabled {
		fmt.Fprintln(c.out, "durability: off (no -data-dir)")
		return nil
	}
	sync := "page-cache (process-crash safe)"
	if d.Fsync {
		sync = "fsync per commit (machine-crash safe)"
	}
	fmt.Fprintf(c.out, "durability: on  dir %s  %s\n", d.Dir, sync)
	fmt.Fprintf(c.out, "journal: seq %d  checkpoint seq %d  tail %d records\n", d.Seq, d.CheckpointSeq, d.TailRecords)
	if d.CheckpointAgeSec > 0 {
		fmt.Fprintf(c.out, "last checkpoint: %.0fs ago\n", d.CheckpointAgeSec)
	} else {
		fmt.Fprintln(c.out, "last checkpoint: never")
	}
	if d.LoopUS > 0 {
		fmt.Fprintf(c.out, "checkpoint cost: %.0f µs on the scheduler loop, %.0f µs writing off it\n", d.LoopUS, d.WriteUS)
	}
	if d.InFlight {
		fmt.Fprintln(c.out, "checkpoint write in flight: checkpoint seq moves when it lands")
	}
	if r := d.Recovery; r != nil && (r.CheckpointOps > 0 || r.TailRecords > 0) {
		fmt.Fprintf(c.out, "recovered at boot: checkpoint seq %d (%d ops) + %d journal records, %d torn bytes truncated\n",
			r.CheckpointSeq, r.CheckpointOps, r.TailRecords, r.TruncatedBytes)
		for _, w := range r.Warnings {
			fmt.Fprintf(c.out, "recovery warning: %s\n", w)
		}
	}
	return nil
}

// shards renders GET /v1/shards (federated daemons only) as one row per
// cluster shard.
func (c *client) shards() error {
	var rows []struct {
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
		Draining   bool   `json:"draining"`
	}
	if err := c.do("GET", "/v1/shards", nil, &rows); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%-6s %-14s %10s %7s %8s %9s %10s %10s %8s\n",
		"shard", "scheduler", "busy", "queued", "running", "pending", "submitted", "completed", "version")
	for _, r := range rows {
		state := ""
		if r.Draining {
			state = "  draining"
		}
		fmt.Fprintf(c.out, "%-6d %-14s %6d/%-3d %7d %8d %9d %10d %10d %8d%s\n",
			r.Shard, r.Scheduler, r.ProcsBusy, r.Procs, r.QueueDepth, r.Running, r.Pending,
			r.Submitted, r.Completed, r.Version, state)
	}
	return nil
}

// replicationInfo mirrors serve.ReplicationInfo; schedctl decodes only
// what it prints.
type replicationInfo struct {
	Role        string `json:"role"`
	Term        uint64 `json:"term"`
	Seq         uint64 `json:"seq"`
	Source      string `json:"source"`
	AppliedSeq  uint64 `json:"applied_seq"`
	LeaderSeq   uint64 `json:"leader_seq"`
	LagOps      uint64 `json:"lag_ops"`
	LagVirtual  int64  `json:"lag_virtual_time"`
	Resyncs     int64  `json:"resyncs"`
	RetainFloor uint64 `json:"retain_floor"`
	AckQuorum   int    `json:"ack_quorum"`
	QuorumDeg   int64  `json:"quorum_degraded"`
	QuorumRej   int64  `json:"quorum_rejected"`
	Followers   []struct {
		ID       string  `json:"id"`
		Addr     string  `json:"addr"`
		AckedSeq uint64  `json:"acked_seq"`
		AgeSec   float64 `json:"age_sec"`
	} `json:"followers"`
	Promoted bool `json:"promoted"`
}

func (c *client) printReplication(ri replicationInfo) {
	switch ri.Role {
	case "leader":
		line := fmt.Sprintf("leader  term %d  seq %d", ri.Term, ri.Seq)
		if ri.Promoted {
			line += "  (promoted from follower)"
		}
		fmt.Fprintln(c.out, line)
		if ri.RetainFloor > 0 {
			fmt.Fprintf(c.out, "retention floor: seq %d\n", ri.RetainFloor)
		}
		if ri.Resyncs > 0 {
			fmt.Fprintf(c.out, "full resyncs served: %d (retention lost the incremental race)\n", ri.Resyncs)
		}
		if ri.AckQuorum > 0 {
			line := fmt.Sprintf("ack quorum: %d follower(s) per write", ri.AckQuorum)
			if ri.QuorumDeg > 0 {
				line += fmt.Sprintf("  degraded acks %d", ri.QuorumDeg)
			}
			if ri.QuorumRej > 0 {
				line += fmt.Sprintf("  rejected writes %d", ri.QuorumRej)
			}
			fmt.Fprintln(c.out, line)
		}
		for _, f := range ri.Followers {
			line := fmt.Sprintf("follower %s  acked seq %d  last seen %.1fs ago", f.ID, f.AckedSeq, f.AgeSec)
			if f.Addr != "" {
				line += "  reads at " + f.Addr
			}
			fmt.Fprintln(c.out, line)
		}
	case "follower":
		fmt.Fprintf(c.out, "follower of %s  term %d\n", ri.Source, ri.Term)
		fmt.Fprintf(c.out, "applied seq %d  leader seq %d  lag %d ops, %d virtual seconds\n",
			ri.AppliedSeq, ri.LeaderSeq, ri.LagOps, ri.LagVirtual)
		if ri.Resyncs > 0 {
			fmt.Fprintf(c.out, "full resyncs: %d\n", ri.Resyncs)
		}
	default:
		fmt.Fprintln(c.out, "standalone (no journal to replicate)")
	}
}

// replication renders GET /v1/debug/replication for either role.
func (c *client) replication() error {
	var ri replicationInfo
	if err := c.do("GET", "/v1/debug/replication", nil, &ri); err != nil {
		return err
	}
	c.printReplication(ri)
	return nil
}

// routing renders GET /v1/debug/routing: the front end's read-route mode
// and, under replica routing, each shard's follower rotation.
func (c *client) routing() error {
	var info struct {
		ReadRoute string `json:"read_route"`
		Shards    []struct {
			Shard        int    `json:"shard"`
			LeaderSeq    uint64 `json:"leader_seq"`
			MaxLagOps    uint64 `json:"max_lag_ops"`
			Proxied      int64  `json:"proxied"`
			Fallbacks    int64  `json:"fallbacks"`
			Ejections    int64  `json:"ejections"`
			Readmissions int64  `json:"readmissions"`
			Followers    []struct {
				ID       string  `json:"id"`
				Addr     string  `json:"addr"`
				AckedSeq uint64  `json:"acked_seq"`
				LagOps   uint64  `json:"lag_ops"`
				AgeSec   float64 `json:"age_sec"`
				Eligible bool    `json:"eligible"`
			} `json:"followers"`
		} `json:"shards"`
	}
	if err := c.do("GET", "/v1/debug/routing", nil, &info); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "read route: %s\n", info.ReadRoute)
	for _, s := range info.Shards {
		fmt.Fprintf(c.out, "shard %d  leader seq %d  max lag %d ops  proxied %d  fallbacks %d  ejections %d  readmissions %d\n",
			s.Shard, s.LeaderSeq, s.MaxLagOps, s.Proxied, s.Fallbacks, s.Ejections, s.Readmissions)
		for _, f := range s.Followers {
			state := "ejected"
			if f.Eligible {
				state = "in rotation"
			}
			fmt.Fprintf(c.out, "  follower %s  %s  acked seq %d  lag %d ops  seen %.1fs ago  %s\n",
				f.ID, f.Addr, f.AckedSeq, f.LagOps, f.AgeSec, state)
		}
	}
	return nil
}

// promote asks a follower replica to take over as leader.
func (c *client) promote() error {
	var ri replicationInfo
	if err := c.do("POST", "/v1/promote", nil, &ri); err != nil {
		return err
	}
	fmt.Fprintln(c.out, "promoted")
	c.printReplication(ri)
	return nil
}

// passthrough streams a plain endpoint (health JSON, Prometheus text).
func (c *client) passthrough(path string) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	_, err = io.Copy(c.out, resp.Body)
	return err
}

// printJob renders one job as a single line, the way qstat does.
func (c *client) printJob(v jobView) {
	line := fmt.Sprintf("job %d  %s  %dp × %ds  [%s]", v.ID, v.State, v.Width, v.Runtime, v.Category)
	switch {
	case v.State == "queued" && v.PredictedStart != nil:
		line += fmt.Sprintf("  predicted start t=%d", *v.PredictedStart)
	case v.State == "running" && v.Start != nil:
		line += fmt.Sprintf("  started t=%d", *v.Start)
	case v.State == "done" && v.End != nil:
		line += fmt.Sprintf("  finished t=%d", *v.End)
		if v.Slowdown != nil {
			line += fmt.Sprintf("  slowdown %.2f", *v.Slowdown)
		}
	}
	fmt.Fprintln(c.out, line)
}

func oneID(args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("expected exactly one job ID, got %d args", len(args))
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return 0, fmt.Errorf("bad job ID %q", args[0])
	}
	return id, nil
}
