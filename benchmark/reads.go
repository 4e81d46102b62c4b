package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
)

const (
	// readsPerWrite is how often the poller changes the daemon's state
	// itself. One write per 50 reads leaves about 40 % of the /v1/queue
	// and /metrics reads (one in 20 reads each) to render a new version.
	readsPerWrite = 50
	// readsSlice is the reads in a slice: 40 writes, 100 queue listings and
	// 100 metrics pages among them, about 70 ms.
	readsSlice = 2000
	// 43 running jobs of width 10 fill the 430-processor machine.
	readsRunning, readsRunWidth = 43, 10
)

// The read mix is schedload's: of every 20 reads 16 are job status, 2
// healthz, 1 the queue listing and 1 the metrics page.
type endpoint int

const (
	epStatus endpoint = iota
	epHealthz
	epQueue
	epMetrics
	numEndpoints
)

func endpointOf(i int) endpoint {
	switch i % 20 {
	case 0:
		return epQueue
	case 1:
		return epMetrics
	case 2, 3:
		return epHealthz
	}
	return epStatus
}

// reads is the lock-free read surface beside a trickle of writes.
type reads struct {
	reads, depth int
	workdir      string

	running, fill []serve.SubmitRequest
	subs          [][]byte // one per submitting write
	picks         []int    // one per read (status target) and per cancel
}

func (r *reads) tailQ() float64              { return 0.99 }
func (r *reads) nominalRound() time.Duration { return 700 * time.Millisecond }
func (r *reads) cleanup()                    {}

func (r *reads) prepare(seed int64) error {
	rng := stats.NewRNG(seed)
	r.running, r.fill, r.subs, r.picks = nil, nil, nil, nil
	for i := 0; i < readsRunning; i++ {
		j := randomJob(rng)
		j.Width = readsRunWidth
		r.running = append(r.running, j)
	}
	for i := 0; i < r.depth; i++ {
		r.fill = append(r.fill, randomJob(rng))
	}
	for i := 0; i < r.reads/readsPerWrite/2+1; i++ {
		r.subs = append(r.subs, mustJSON(randomJob(rng)))
	}
	for i := 0; i < r.reads+len(r.subs); i++ {
		r.picks = append(r.picks, rng.Intn(1<<30))
	}
	return nil
}

// readsKeep is what a round leaves behind for the probes.
type readsKeep struct {
	d       *daemon
	live    []int
	byClass *[numEndpoints][2]opClass // [endpoint][warm, cold]; traced rounds only
	dryRuns int64
}

func (r *reads) round(rc *roundCtx) error {
	d, err := startDaemon(r.workdir, false)
	if err != nil {
		return err
	}
	rc.release = d.remove
	live, err := d.seedQueue(r.running, r.fill)
	if err != nil {
		return err
	}
	keep := &readsKeep{d: d}
	rc.keep = keep
	if rc.tr != nil {
		keep.byClass = new([numEndpoints][2]opClass)
	}

	// dirty marks the endpoints that have not been read since the last
	// write: their next read is a cold one. added and gone are what the
	// last write did, for the warm-up round's read-your-writes check.
	var dirty [numEndpoints]bool
	added, gone := 0, 0
	writes, pick := 0, 0
	nextPick := func() int { pick++; return r.picks[pick-1] }
	paths := [numEndpoints]string{epHealthz: "/healthz", epQueue: "/v1/queue", epMetrics: "/metrics"}
	dry0 := d.srv.DryRuns()
	rc.start()
	for i := 0; i < r.reads; i++ {
		if i%readsPerWrite == readsPerWrite-1 {
			if writes%2 == 0 {
				id, _ := d.submit(r.subs[writes/2])
				if id == 0 {
					return fmt.Errorf("interleaved submit refused")
				}
				live = append(live, id)
				added, gone = id, 0
			} else {
				at := midQueue(live, nextPick())
				if ok, _ := d.cancelJob(live[at]); !ok {
					return fmt.Errorf("interleaved cancel of job %d refused", live[at])
				}
				added, gone = 0, live[at]
				live = removeAt(live, at)
			}
			writes++
			dirty = [numEndpoints]bool{true, true, true, true}
		}
		ep := endpointOf(i)
		path, want := paths[ep], 0
		if ep == epStatus {
			want = live[nextPick()%len(live)]
			path = "/v1/jobs/" + strconv.Itoa(want)
		}
		t0 := time.Now()
		rec, call := d.do("GET", path, nil)
		ok := rec.Code == http.StatusOK
		if ok && ep == epStatus {
			ok = leadingID(rec.Body.Bytes()) == want
		}
		op := time.Since(t0)
		rc.sample(op)
		if ok && rc.warm {
			ok = checkRead(ep, rec.Body.Bytes(), want, dirty[ep], i%200 == 0, added, gone)
		}
		if !ok {
			rc.failed++
		}
		if rc.tr != nil {
			cold := 0
			if dirty[ep] {
				cold = 1
			}
			keep.byClass[ep][cold].add(t0, op, call)
		}
		dirty[ep] = false
		if (i+1)%readsSlice == 0 {
			rc.mark()
		}
	}
	rc.stop(r.reads)
	keep.dryRuns = d.srv.DryRuns() - dry0
	keep.live = live
	if rc.tr == nil {
		return nil
	}
	names := [numEndpoints]string{"GET /v1/jobs/{id}", "GET /healthz", "GET /v1/queue", "GET /metrics"}
	for ep := range keep.byClass {
		keep.byClass[ep][0].fold(rc.tr, rc.span, names[ep]+" (warm)")
		keep.byClass[ep][1].fold(rc.tr, rc.span, names[ep]+" (cold)")
	}
	return nil
}

// checkRead is the warm-up round's check of one response: status decodes
// and carries the requested ID and a state, healthz says ok, the first
// queue listing after a write shows what the write did, and every metrics
// line parses. A queue listing is 70 kB, so only every tenth one (decode)
// is unmarshalled in full; the others are searched for the two job IDs.
func checkRead(ep endpoint, body []byte, want int, first, decode bool, added, gone int) bool {
	switch ep {
	case epStatus:
		var v serve.JobView
		return json.Unmarshal(body, &v) == nil && v.ID == want && v.State != ""
	case epHealthz:
		var h struct{ Status string }
		return json.Unmarshal(body, &h) == nil && h.Status == "ok"
	case epQueue:
		if decode {
			var q serve.QueueResponse
			if json.Unmarshal(body, &q) != nil || len(q.Running) != readsRunning || len(q.Queued) == 0 {
				return false
			}
		}
		has := func(id int) bool { return bytes.Contains(body, []byte(`{"id":`+strconv.Itoa(id)+`,`)) }
		return !first || (added == 0 || has(added)) && (gone == 0 || !has(gone))
	case epMetrics:
		samples := 0
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if _, err := strconv.ParseFloat(val, 64); !ok || err != nil || !strings.HasPrefix(name, "schedd_") {
				return false
			}
			samples++
		}
		return samples > 0
	}
	return false
}

// verify has nothing left to do: every response of the warm-up round was
// decoded and checked as it arrived.
func (r *reads) verify(*roundCtx) (int, error) { return 0, nil }

func (r *reads) probe(pc *probeCtx) error {
	keep := pc.traced.keep.(*readsKeep)
	var cold, all time.Duration
	var status, healthz latHist
	for ep := range keep.byClass {
		for c := range keep.byClass[ep] {
			all += keep.byClass[ep][c].call.busy
		}
		cold += keep.byClass[ep][1].call.busy
	}
	for c := 0; c < 2; c++ {
		status.merge(&keep.byClass[epStatus][c].hist)
		healthz.merge(&keep.byClass[epHealthz][c].hist)
	}
	pc.out["serve.read_status_us"] = status.p50us()
	pc.out["serve.read_healthz_us"] = healthz.p50us()
	pc.out["serve.read_queue_warm_us"] = keep.byClass[epQueue][0].hist.p50us()
	pc.out["serve.read_queue_cold_us"] = keep.byClass[epQueue][1].hist.p50us()
	pc.out["serve.read_metrics_warm_us"] = keep.byClass[epMetrics][0].hist.p50us()
	pc.out["serve.read_metrics_cold_us"] = keep.byClass[epMetrics][1].hist.p50us()
	pc.out["serve.cold_share"] = cold.Seconds() / all.Seconds()
	pc.out["serve.dry_runs_per_kop"] = float64(keep.dryRuns) / (float64(r.reads) / 1000)

	// The same reads without the mux and the JSON encoder around them.
	srv := keep.d.srv
	timeCalls := func(name string, n int, call func(i int)) float64 {
		sp := pc.tr.begin(pc.traced.span, "probe: "+name, "serve")
		defer pc.tr.finish(sp)
		ds := make([]time.Duration, n)
		for i := range ds {
			t0 := time.Now()
			call(i)
			ds[i] = time.Since(t0)
		}
		return p50of(ds)
	}
	missing := 0
	pc.out["serve.lookup_direct_us"] = timeCalls("serve.Lookup", 20000, func(i int) {
		if _, ok := srv.Lookup(keep.live[i%len(keep.live)]); !ok {
			missing++
		}
	})
	if missing > 0 {
		return fmt.Errorf("direct lookups missed %d live jobs", missing)
	}
	pc.out["serve.queue_direct_us"] = timeCalls("serve.Queue", 101, func(int) { srv.Queue() })
	pc.out["serve.metrics_render_us"] = timeCalls("serve.WriteMetrics", 501, func(int) { serve.WriteMetrics(io.Discard, srv.Current()) })
	return nil
}
