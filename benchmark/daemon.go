package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
)

// The daemon every serving workload runs: schedd's defaults (EASY, FCFS,
// audit on) on the CTC machine, with virtual time held still so that load
// is the only variable. The flush policy is Fsync off on every workload:
// a sandbox's fsync is not a device's.
const daemonProcs = 430

func daemonOptions(journal string) serve.Options {
	return serve.Options{
		Procs: daemonProcs, Scheduler: "easy", Policy: "FCFS", Audit: true, Speed: 1e-9,
		// Checkpoints come from the record count alone; the wall-clock
		// trigger would make their number depend on the machine's speed.
		Durability: serve.DurabilityOptions{Dir: journal, CheckpointEvery: 24 * time.Hour},
	}
}

// daemon is one live serve.Server: its scheduler loop runs on the only
// goroutine besides the driver's.
type daemon struct {
	srv    *serve.Server
	h      http.Handler
	dir    string // journal directory, "" without a journal
	cancel context.CancelFunc
	done   chan error
	err    error
}

// startDaemon boots a daemon; with journal set it writes a WAL into a new
// temporary directory under workdir.
func startDaemon(workdir string, journal bool) (*daemon, error) {
	d := &daemon{done: make(chan error, 1)}
	if journal {
		dir, err := os.MkdirTemp(workdir, "journal-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
	}
	srv, err := serve.New(daemonOptions(d.dir))
	if err != nil {
		d.removeDir()
		return nil, err
	}
	d.srv, d.h = srv, srv.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	go func() { d.done <- srv.Run(ctx) }()
	return d, nil
}

// stop drains the daemon and waits for its loop to exit. The journal stays
// on disk until remove.
func (d *daemon) stop() error {
	if d.cancel != nil {
		d.cancel()
		d.err = <-d.done
		d.cancel = nil
		if err := d.srv.Close(); d.err == nil {
			d.err = err
		}
	}
	return d.err
}

func (d *daemon) removeDir() {
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// remove stops the daemon and deletes its journal.
func (d *daemon) remove() {
	_ = d.stop() // a failed drain has been reported by whoever looked at stop's error first
	d.removeDir()
}

// do sends one request through the daemon's handler, as schedload's
// self-hosted mode does: no socket, the service's own request cost. It
// returns the response and the time spent inside the serve layer.
func (d *daemon) do(method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	d.h.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

// opClass sums one kind of request over a traced round: the op as the
// client sees it, and the call into the serve layer inside it. A round
// makes tens of thousands of µs-scale requests, so they are folded into
// two spans per class instead of recorded one by one; the histogram keeps
// the calls' percentiles.
type opClass struct {
	op, call callAcc
	hist     latHist
}

func (c *opClass) add(t0 time.Time, op, call time.Duration) {
	c.op.addDur(t0, op)
	c.call.addDur(t0, call)
	c.hist.add(call)
}

func (c *opClass) fold(tr *tracer, parent int32, name string) {
	tr.fold(tr.fold(parent, name, "driver", c.op), "serve.ServeHTTP", "serve", c.call)
}

// submit posts one job and returns its ID, or 0 when the daemon did not
// answer 201 with a job.
func (d *daemon) submit(body []byte) (int, time.Duration) {
	rec, dt := d.do("POST", "/v1/jobs", body)
	if rec.Code != http.StatusCreated {
		return 0, dt
	}
	return leadingID(rec.Body.Bytes()), dt
}

// cancelJob deletes one queued job and reports whether the daemon answered 204.
func (d *daemon) cancelJob(id int) (bool, time.Duration) {
	rec, dt := d.do("DELETE", "/v1/jobs/"+strconv.Itoa(id), nil)
	return rec.Code == http.StatusNoContent, dt
}

// leadingID reads the id off a JobView body, which starts {"id":N, — the
// timed rounds' cheap form of the warm-up round's full decode.
func leadingID(body []byte) int {
	const prefix = `{"id":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0
	}
	id := 0
	for _, c := range body[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int(c-'0')
	}
	return id
}

// randomJob draws one submission that queues behind a full machine.
func randomJob(r *stats.RNG) serve.SubmitRequest {
	rt := int64(r.IntRange(600, 36000))
	return serve.SubmitRequest{
		Width:    r.IntRange(1, 64),
		Runtime:  rt,
		Estimate: rt + int64(r.IntRange(0, 2*int(rt))),
		User:     r.IntRange(1, 200),
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshal %T: %v", v, err)) // plain structs of ints only
	}
	return b
}

// seedQueue submits the jobs that pin the machine and build the standing
// queue, and returns the IDs of the queue in submission order.
func (d *daemon) seedQueue(pins, fill []serve.SubmitRequest) ([]int, error) {
	for _, p := range pins {
		if id, _ := d.submit(mustJSON(p)); id == 0 {
			return nil, fmt.Errorf("seeding: pin job refused")
		}
	}
	live := make([]int, 0, len(fill)+64)
	for _, f := range fill {
		id, _ := d.submit(mustJSON(f))
		if id == 0 {
			return nil, fmt.Errorf("seeding: queue job refused")
		}
		live = append(live, id)
	}
	return live, nil
}

// midQueue picks a victim from the middle half of the queue, so that a
// cancel always invalidates the forecast of the jobs behind it.
func midQueue(live []int, pick int) int {
	n := len(live)
	return n/4 + pick%(n/2)
}

func removeAt(live []int, i int) []int {
	copy(live[i:], live[i+1:])
	return live[:len(live)-1]
}
