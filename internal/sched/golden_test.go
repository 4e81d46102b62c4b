package sched

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenKinds is every representative kind plus the parameter values the
// registry's conformance battery adds, and slack:0 (the degenerate factor
// that must stay conservative).
func goldenKinds() []string {
	return append(Kinds(), "selective:3", "slack:0", "slack:0.5", "depth:8", "preemptive:5")
}

// goldenWorkload is one seeded stream near saturation on a 32-processor
// machine: half the estimates overrun their runtime by up to 4x, so early
// completions open holes (compression, promotion of starving jobs, the -nc
// ablation's wake timer), and the queue is deep enough that arrivals
// displace and cancels land mid-queue.
func goldenWorkload() []*job.Job {
	r := stats.NewRNG(1802)
	const procs = 32
	jobs := make([]*job.Job, 0, 320)
	clock := int64(0)
	for i := 1; i <= cap(jobs); i++ {
		clock += int64(r.Intn(760) + 1)
		rt := int64(r.Intn(3000) + 1)
		est := rt
		if r.Bool(0.5) {
			est = rt + int64(r.Intn(int(rt)*3+1))
		}
		w := r.Intn(procs) + 1
		if r.Bool(0.7) {
			w = r.Intn(procs/4) + 1
		}
		jobs = append(jobs, &job.Job{ID: i, Arrival: clock, Runtime: rt, Estimate: est, Width: w})
	}
	return jobs
}

// goldenCell runs the workload through one scheduler as a session: every
// fifth job is cancelled 900 s after it arrives if it is still queued, and
// the session's state hash is taken when a quarter, a half and three
// quarters of the stream have arrived. It returns the final schedule's
// fingerprint followed by the three hashes.
func goldenCell(t *testing.T, kind, polName string) [4]uint64 {
	t.Helper()
	const procs = 32
	pol, err := PolicyByName(polName)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := MakerFor(kind, pol)
	if err != nil {
		t.Fatal(err)
	}
	aud := NewAuditor(procs)
	ss, err := sim.Open(sim.Machine{Procs: procs}, mk(procs), aud.Observer())
	if err != nil {
		t.Fatal(err)
	}
	jobs := goldenWorkload()
	for _, j := range jobs {
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	type stop struct {
		at     int64
		cancel int // job ID to cancel, or 0 for a hash point
	}
	var stops []stop
	for i, j := range jobs {
		if j.ID%5 == 0 {
			stops = append(stops, stop{at: j.Arrival + 900, cancel: j.ID})
		}
		if n := len(jobs); i == n/4 || i == n/2 || i == 3*n/4 {
			stops = append(stops, stop{at: j.Arrival})
		}
	}
	sort.SliceStable(stops, func(i, k int) bool { return stops[i].at < stops[k].at })

	var out [4]uint64
	taken := 0
	for _, s := range stops {
		if err := ss.AdvanceTo(s.at); err != nil {
			t.Fatalf("%s/%s: %v", kind, polName, err)
		}
		if s.cancel != 0 {
			ss.Cancel(s.cancel)
			continue
		}
		taken++
		out[taken] = ss.StateHash()
	}
	ps, err := ss.Drain()
	if err != nil {
		t.Fatalf("%s/%s: %v", kind, polName, err)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("%s/%s: %v", kind, polName, err)
	}
	out[0] = metrics.Fingerprint(ps)
	return out
}

// TestGoldenSchedulesAndStateHashes pins, for every scheduler kind under
// FCFS, SJF and XF, the schedule fingerprint and three mid-run
// sim.Session.StateHash values on a workload with inexact estimates and
// mid-queue cancels. The state hash covers queue order and held
// reservations, which is what a checkpoint written by an older binary is
// verified against on recovery — so a refactor of the schedulers must leave
// this file untouched. Regenerate deliberately with
//
//	go test ./internal/sched -run TestGoldenSchedulesAndStateHashes -update
func TestGoldenSchedulesAndStateHashes(t *testing.T) {
	var buf bytes.Buffer
	for _, kind := range goldenKinds() {
		for _, pol := range []string{"FCFS", "SJF", "XF"} {
			c := goldenCell(t, kind, pol)
			fmt.Fprintf(&buf, "%s/%s %016x %016x %016x %016x\n", kind, pol, c[0], c[1], c[2], c[3])
		}
	}
	golden := filepath.Join("testdata", "golden_schedules.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("schedules or state hashes deviate from %s — if the change is intentional, regenerate with -update\ngot:\n%s\nwant:\n%s",
			golden, buf.String(), want)
	}
}
