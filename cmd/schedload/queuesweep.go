package main

// The -queue-sweep mode: measure sustained write throughput as a function
// of standing queue depth. Before the scheduler's pass memo (DESIGN.md §15)
// and delta snapshot publication (PERFORMANCE.md §6), every acknowledged
// submit paid a scheduling pass and a snapshot rebuild proportional to the
// backlog, so the QPS-vs-depth curve fell roughly as 1/depth; with the
// incremental machinery the curve must stay flat. The sweep was
// PR 10's acceptance experiment (PERFORMANCE.md §3 has the command).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// queueSweepDepths is the standing-queue ladder the sweep walks.
var queueSweepDepths = []int{64, 128, 256, 512, 1024}

// queueSweepConfig carries the per-depth run parameters (the §8
// writer-dominant protocol is -readers 0 -writers 16).
type queueSweepConfig struct {
	procs    int
	kind     string
	policy   string
	readers  int
	writers  int
	duration time.Duration
	jsonOut  bool
}

// depthPoint is one row of the sweep.
type depthPoint struct {
	Queue      int     `json:"queue"`
	WriteOps   int     `json:"write_ops"`
	WriteQPS   float64 `json:"write_qps"`
	WriteP50us float64 `json:"write_p50_us"`
	WriteP99us float64 `json:"write_p99_us"`
	ReadQPS    float64 `json:"read_qps,omitempty"`
	Errors     int     `json:"errors,omitempty"`
}

// queueSweepReport is the machine-readable form of the whole sweep.
type queueSweepReport struct {
	Mode     string       `json:"mode"`
	Duration float64      `json:"duration_s"`
	Readers  int          `json:"readers"`
	Writers  int          `json:"writers"`
	Sweep    []depthPoint `json:"sweep"`
}

// runQueueSweep self-hosts one fresh daemon per depth (each point starts
// from an empty history, so depths are compared like-for-like) and reuses
// the standard measurement path by re-entering run with a synthesized
// argument list.
func runQueueSweep(cfg queueSweepConfig, out io.Writer) error {
	rep := queueSweepReport{
		Mode:     "snapshot",
		Duration: cfg.duration.Seconds(),
		Readers:  cfg.readers,
		Writers:  cfg.writers,
	}
	for _, depth := range queueSweepDepths {
		args := []string{
			"-procs", strconv.Itoa(cfg.procs),
			"-sched", cfg.kind,
			"-policy", cfg.policy,
			"-queue", strconv.Itoa(depth),
			"-readers", strconv.Itoa(cfg.readers),
			"-writers", strconv.Itoa(cfg.writers),
			"-duration", cfg.duration.String(),
			"-json",
		}
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			return fmt.Errorf("queue-sweep depth %d: %w", depth, err)
		}
		var r report
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
			return fmt.Errorf("queue-sweep depth %d: parse report: %w", depth, err)
		}
		rep.Sweep = append(rep.Sweep, depthPoint{
			Queue:      depth,
			WriteOps:   r.Writes.Ops,
			WriteQPS:   r.Writes.QPS,
			WriteP50us: r.Writes.P50,
			WriteP99us: r.Writes.P99,
			ReadQPS:    r.Reads.QPS,
			Errors:     r.Writes.Errs + r.Reads.Errs,
		})
		if !cfg.jsonOut {
			fmt.Fprintf(out, "  queue=%-5d writes %8d ops %10.1f QPS  p50=%.0fµs p99=%.0fµs\n",
				depth, r.Writes.Ops, r.Writes.QPS, r.Writes.P50, r.Writes.P99)
		}
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	base := rep.Sweep[0].WriteQPS
	last := rep.Sweep[len(rep.Sweep)-1].WriteQPS
	if base > 0 {
		fmt.Fprintf(out, "queue-sweep: write QPS at depth %d is %.2fx depth %d\n",
			queueSweepDepths[len(queueSweepDepths)-1], last/base, queueSweepDepths[0])
	}
	return nil
}
