// Command schedctl is the command-line client for the schedd scheduling
// daemon. It mirrors the classic batch-system front-ends: submit a job,
// query its status (including the predicted start time for queued jobs),
// cancel it, and inspect the whole queue.
//
//	schedctl submit -width 16 -runtime 3600
//	schedctl stat 42
//	schedctl cancel 42
//	schedctl queue
//	schedctl info         # GET /v1/debug/stats: role, journal, lag, followers, counters
//	schedctl shards       # federation only: per-shard state table
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
	"time"

	"repro/internal/cli"
	"repro/internal/fed"
	"repro/internal/instr"
	"repro/internal/serve"
)

func main() {
	os.Exit(cli.Status("schedctl", run(os.Args[1:], os.Stdout), os.Stderr))
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("schedctl", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", defaultAddr(), "schedd base URL")
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: schedctl [-addr URL] <submit|stat|cancel|queue|info|shards|routing|promote|health|metrics> [args]\n")
		fs.PrintDefaults()
	}
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	c := &client{base: strings.TrimRight(*addr, "/"), out: out, http: &http.Client{Timeout: requestTimeout}}
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
		return c.printStats("GET", "/v1/debug/stats")
	case "shards":
		return c.shards()
	case "routing":
		return c.routing()
	case "promote": // the reply is the promoted daemon's stats body
		return c.printStats("POST", "/v1/promote")
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

// requestTimeout bounds every request, so a daemon that accepts the
// connection and never answers — a wedged scheduler loop holding a stats
// read in its mailbox — costs an error, not a hang. It is longer than the
// slowest legitimate call: a promotion whose final catch-up waits out a
// hung leader's 10 s pull, then writes a checkpoint. A variable so tests
// can shorten it; it is not an option.
var requestTimeout = 20 * time.Second

type client struct {
	base string
	out  io.Writer
	http *http.Client
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
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var e serve.ErrorResponse
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
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	for i := 0; i < *n; i++ {
		body, _ := json.Marshal(serve.SubmitRequest{Width: *width, Runtime: *runtime, Estimate: *est, User: *user})
		var v serve.JobView
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
	var v serve.JobView
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
	var q serve.QueueResponse
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

// printStats prints a stats body as one "key value" line per field, in
// the body's order, flattened by instr.Walk (OPERATIONS.md §4 explains
// each key).
func (c *client) printStats(method, path string) error {
	var body json.RawMessage
	if err := c.do(method, path, nil, &body); err != nil {
		return err
	}
	return instr.Walk(body, func(key, value string) { fmt.Fprintln(c.out, key, value) })
}

// shards renders GET /v1/shards (federated daemons only) as one row per
// cluster shard.
func (c *client) shards() error {
	var rows []fed.ShardStatus
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

// routing renders GET /v1/debug/routing: the front end's read-route mode
// and, under replica routing, each shard's follower rotation.
func (c *client) routing() error {
	var info fed.RoutingInfo
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

// passthrough streams a plain endpoint (health JSON, Prometheus text).
func (c *client) passthrough(path string) error {
	resp, err := c.http.Get(c.base + path)
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
func (c *client) printJob(v serve.JobView) {
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
