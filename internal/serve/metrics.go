package serve

import (
	"fmt"
	"io"

	"repro/internal/job"
	"repro/internal/metrics"
)

// counters is the server's running tally, updated only under Server.mu
// (via the session observer and command execution), so it needs no lock
// of its own.
type counters struct {
	submitted  int64
	dispatches int64 // first starts and resumes: the session tells them apart
	completed  int64
	cancelled  int64
	rejected   int64

	inUse    int   // processors currently busy
	busyArea int64 // ∫ inUse dt in processor·seconds of virtual time
	lastT    int64 // virtual instant busyArea is integrated up to

	// Per-category bounded-slowdown accumulation over completed jobs.
	catSum [job.NumCategories]float64
	catN   [job.NumCategories]int64
}

// tick integrates the busy area up to virtual instant now.
func (c *counters) tick(now int64) {
	if now > c.lastT {
		c.busyArea += int64(c.inUse) * (now - c.lastT)
		c.lastT = now
	}
}

// onStart records a dispatch at now.
func (c *counters) onStart(now int64, j *job.Job) {
	c.tick(now)
	c.inUse += j.Width
	c.dispatches++
}

// onSuspend records a preemption at now.
func (c *counters) onSuspend(now int64, j *job.Job) {
	c.tick(now)
	c.inUse -= j.Width
}

// onComplete records a completion at now and folds the job's slowdown into
// its category's running mean.
func (c *counters) onComplete(now int64, j *job.Job, th job.Thresholds) {
	c.tick(now)
	c.inUse -= j.Width
	c.completed++
	delay := (now - j.Arrival) - j.Runtime
	if delay < 0 {
		delay = 0
	}
	cat := th.Classify(j)
	c.catSum[cat] += metrics.BoundedSlowdown(delay, j.Runtime)
	c.catN[cat]++
}

// utilization is the busy fraction of the machine over virtual time
// [start, now], after integrating up to now.
func (c *counters) utilization(now int64, procs int) float64 {
	c.tick(now)
	if c.lastT <= 0 || procs <= 0 {
		return 0
	}
	return float64(c.busyArea) / (float64(procs) * float64(c.lastT))
}

// WriteMetrics renders the Prometheus text exposition format from one
// immutable snapshot, kept by hand rather than through a client library: the
// format is five lines of syntax and the repo takes no dependencies. Because
// it reads only the snapshot it is safe on any goroutine, and a draining or
// stopped daemon keeps exposing its final state. Exported so the federation
// front end renders its merged snapshot in the identical format.
func WriteMetrics(w io.Writer, snap *Snapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, format string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s "+format+"\n", name, help, name, name, v)
	}

	counter("schedd_jobs_submitted_total", "Jobs accepted by the service.", snap.Submitted)
	counter("schedd_jobs_started_total", "Jobs dispatched for the first time.", snap.Started)
	counter("schedd_jobs_resumed_total", "Resumes of preempted jobs.", snap.Resumed)
	counter("schedd_jobs_completed_total", "Jobs that finished.", snap.Completed)
	counter("schedd_jobs_cancelled_total", "Jobs withdrawn before starting.", snap.Cancelled)
	counter("schedd_jobs_rejected_total", "Submissions refused (invalid or too wide).", snap.Rejected)

	gauge("schedd_queue_depth", "Jobs waiting in the scheduler queue.", "%d", snap.QueueDepth())
	gauge("schedd_running_jobs", "Jobs currently holding processors.", "%d", len(snap.Running))
	gauge("schedd_procs_total", "Machine size in processors.", "%d", snap.Procs)
	gauge("schedd_procs_busy", "Processors currently in use.", "%d", snap.ProcsBusy)
	gauge("schedd_virtual_time_seconds", "Current virtual time.", "%d", snap.Now)
	gauge("schedd_utilization", "Busy fraction of the machine over virtual time so far.", "%.6f", snap.Utilization)
	gauge("schedd_state_version", "Snapshot publication number of this scrape.", "%d", snap.Version)

	if snap.AuditViolations >= 0 {
		gauge("schedd_audit_violations", "Invariant violations recorded by the audit wrapper.", "%d", snap.AuditViolations)
	}

	fmt.Fprintf(w, "# HELP schedd_slowdown_mean Mean bounded slowdown of completed jobs per paper category.\n# TYPE schedd_slowdown_mean gauge\n")
	for _, cat := range job.Categories() {
		if snap.CatN[cat] == 0 {
			continue
		}
		fmt.Fprintf(w, "schedd_slowdown_mean{category=%q} %.6f\n", cat.String(), snap.CatSum[cat]/float64(snap.CatN[cat]))
	}
}
