package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
)

// captureResponse is an http.ResponseWriter that keeps the body and nothing
// else, and can be used again.
type captureResponse struct {
	h    http.Header
	body bytes.Buffer
}

func (c *captureResponse) Header() http.Header         { return c.h }
func (c *captureResponse) WriteHeader(int)             {}
func (c *captureResponse) Write(p []byte) (int, error) { return c.body.Write(p) }

// viewCodecCheck holds appendJobView and WriteJSON to encoding/json, one
// view at a time, through buffers it keeps between calls: the matrix below
// checks every job at every publication.
type viewCodecCheck struct {
	ref bytes.Buffer // json.Encoder's bytes: what WriteJSON wrote for every value before render.go
	enc []byte
	out captureResponse
}

func newViewCodecCheck() *viewCodecCheck {
	return &viewCodecCheck{out: captureResponse{h: make(http.Header)}}
}

// view fails the test unless the encoder's bytes for v are encoding/json's
// or it declined, it declined exactly when encoding/json refuses v, and
// WriteJSON wrote encoding/json's body — nothing, for a refused value —
// either way. It reports whether the encoder took the view.
func (c *viewCodecCheck) view(t *testing.T, v JobView) bool {
	t.Helper()
	c.ref.Reset()
	refused := json.NewEncoder(&c.ref).Encode(v) != nil // and then nothing was written
	var ok bool
	c.enc, ok = appendJobView(c.enc[:0], &v)
	if ok == refused {
		t.Fatalf("%+v: encoder accepted = %v, encoding/json refused = %v", v, ok, refused)
	}
	if ok && !bytes.Equal(append(c.enc, '\n'), c.ref.Bytes()) {
		t.Fatalf("encoder diverges from encoding/json\n got: %s\nwant: %s", c.enc, c.ref.Bytes())
	}
	c.out.body.Reset()
	WriteJSON(&c.out, http.StatusOK, v)
	if !bytes.Equal(c.out.body.Bytes(), c.ref.Bytes()) {
		t.Fatalf("WriteJSON diverges from encoding/json\n got: %s\nwant: %s", c.out.body.Bytes(), c.ref.Bytes())
	}
	return ok
}

// FuzzViewCodec holds the read surface's encoder to encoding/json on
// arbitrary views — every integer at its extremes, strings that need every
// kind of escaping, the float rule at its cutoffs and beyond what JSON can
// say — first alone, then as the only waiting and the only running job of a
// snapshot whose envelope takes its scalars from the same input.
func FuzzViewCodec(f *testing.F) {
	const allSet = 0x0f
	states := []sim.JobState{sim.StatePending, sim.StateQueued, sim.StateRunning, sim.StateSuspended, sim.StateDone, sim.StateCancelled}
	for i, st := range states {
		for _, cat := range job.Categories() {
			f.Add(i+1, 4, int64(100), int64(130), int64(7), st.String(), cat.String(), byte(i), int64(7), int64(107), int64(9), 1.0)
		}
	}
	f.Add(math.MinInt64, math.MaxInt64, int64(math.MinInt64), int64(math.MaxInt64), int64(-1), "queued", "SN", byte(allSet), int64(math.MinInt64), int64(math.MaxInt64), int64(-7), 0.0)
	for _, sd := range []float64{0, 1, 1e-7, 1e-6, 1e21, 1e20, -1e-9, 123456.789, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)} {
		f.Add(3, 2, int64(50), int64(60), int64(0), "done", "LW", byte(allSet), int64(10), int64(60), int64(10), sd)
	}
	for _, str := range []string{``, `say "hi"`, `back\slash`, `a<b>c`, `x&y`, "line\u2028sep", "bad\xffutf8", "tab\there", "π≥3", "DEL\x7f", "Preemptive(FCFS,xf>=10)"} {
		f.Add(1, 1, int64(1), int64(1), int64(1), str, str, byte(0), int64(0), int64(0), int64(0), 0.0)
	}
	f.Fuzz(func(t *testing.T, id, width int, runtime, estimate, arrival int64, state, category string, set byte, start, end, predicted int64, slowdown float64) {
		v := JobView{ID: id, State: state, Width: width, Runtime: runtime, Estimate: estimate, Arrival: arrival, Category: category}
		if set&1 != 0 {
			v.Start = &start
		}
		if set&2 != 0 {
			v.End = &end
		}
		if set&4 != 0 {
			v.PredictedStart = &predicted
		}
		if set&8 != 0 {
			v.Slowdown = &slowdown
		}
		newViewCodecCheck().view(t, v)

		// The same view under the queue envelope. The listing attaches the
		// prediction itself, from pred.
		v.PredictedStart = nil
		snap := &Snapshot{
			Version: uint64(runtime), Now: arrival, Scheduler: state, Procs: width, ProcsBusy: id,
			Submitted: estimate, Pending: width, Completed: start, Cancelled: end,
			Jobs: NewJobIndex(map[int]JobView{id: v}),
		}
		var pred *forecastPred
		if set&16 != 0 {
			snap.FQueued = []*job.Job{{ID: id}}
			if set&4 != 0 {
				pred = new(forecastPred)
				pred.set(id, predicted)
			}
		}
		if set&32 != 0 {
			snap.Running = []JobView{v, v}
		}
		want, err := json.Marshal(queueResponse(snap, pred))
		got, ok := appendQueue(nil, snap, pred)
		if ok != (err == nil) {
			t.Fatalf("queue of %+v: encoder accepted = %v, encoding/json says %v", v, ok, err)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("queue encoder diverges from encoding/json\n got: %s\nwant: %s", got, want)
		}
	})
}

// TestReadBodiesMatchEncodingJSON replays the mixed scenario under every
// scheduler kind and policy and, at every publication, holds the bodies the
// read surface serves to encoding/json's: the queue listing to
// json.Marshal(queueResponse) plus the encoder's newline, every job's status
// to json.Encoder's. The hand-written encoder must carry all of it — one
// decline anywhere and a cell is back on the reflective path — and the
// versions must include an empty queue and an empty running set, which
// encoding/json writes as null.
func TestReadBodiesMatchEncodingJSON(t *testing.T) {
	forEachCell(t, func(t *testing.T, kind, policy string) {
		s, err := New(Options{Procs: 8, Scheduler: kind, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		seenState := map[string]bool{}
		codec := newViewCodecCheck()
		var emptyQueue, emptyRunning, fullQueue, fullRunning, predicted bool
		driveMixedScenario(t, s, func(step string) {
			t.Helper()
			s.publish()
			snap := s.Current()
			pred := s.forecastFor(snap)
			want, err := json.Marshal(queueResponse(snap, pred))
			if err != nil {
				t.Fatal(err)
			}
			got, ok := appendQueue(nil, snap, pred)
			if !ok {
				t.Fatalf("%s: the encoder declined the queue listing", step)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: queue listing diverges from encoding/json\n got: %s\nwant: %s", step, got, want)
			}
			if body := s.queueBody(snap); !bytes.Equal(body, append(want, '\n')) {
				t.Fatalf("%s: queueBody diverges from encoding/json\n got: %s\nwant: %s", step, body, want)
			}
			emptyQueue = emptyQueue || bytes.Contains(got, []byte(`"queued":null`))
			emptyRunning = emptyRunning || bytes.Contains(got, []byte(`"running":null`))
			fullQueue = fullQueue || bytes.Contains(got, []byte(`"queued":[{`))
			fullRunning = fullRunning || bytes.Contains(got, []byte(`"running":[{`))

			snap.Jobs.Range(func(id int, _ JobView) bool {
				v, _ := s.jobResponse(snap, id)
				if !codec.view(t, v) {
					t.Fatalf("%s: the encoder declined job %d: %+v", step, id, v)
				}
				seenState[v.State] = true
				predicted = predicted || v.PredictedStart != nil
				return true
			})
		})
		if !emptyQueue || !emptyRunning || !fullQueue || !fullRunning {
			t.Fatalf("scenario missed a listing shape: empty queue %v, empty running %v, jobs queued %v, jobs running %v",
				emptyQueue, emptyRunning, fullQueue, fullRunning)
		}
		for _, st := range []sim.JobState{sim.StateQueued, sim.StateRunning, sim.StateDone, sim.StateCancelled} {
			if !seenState[st.String()] {
				t.Fatalf("scenario never served a %s job", st)
			}
		}
		if !predicted {
			t.Fatal("scenario never served a predicted start")
		}
	})
}

// raceDetector is set by race_test.go in a -race build, where sync.Pool
// drops a quarter of what it is handed and allocation counts that rest on
// pooled scratch (renderBuf) mean nothing.
var raceDetector bool

// TestReadRenderAllocs pins what rendering costs in objects. A cold queue
// listing allocates a handful whatever the depth — the body at its exact
// length, the policy-sorted copy of the queue, the memo entry and its
// channel — where copying the views out and marshalling them by reflection
// cost over one per waiting job. A JobView reply allocates what it did
// under json.Encoder: the view boxed into WriteJSON's argument and the
// Content-Type header's value.
func TestReadRenderAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	const depth = 512
	s, _ := snapshotBenchServer(t, 100, depth)
	s.publish()
	snap := s.Current()
	if got := snap.QueueDepth(); got != depth {
		t.Fatalf("queue depth %d, want %d", got, depth)
	}
	var body []byte
	cold := testing.AllocsPerRun(50, func() {
		s.qbody.Store(nil)
		body = s.queueBody(snap)
	})
	t.Logf("cold queue listing at depth %d: %.0f allocations, %d bytes", depth, cold, len(body))
	if cold > 8 {
		t.Errorf("a cold queue listing at depth %d allocates %.0f objects, want a handful", depth, cold)
	}
	if len(body) != cap(body) {
		t.Errorf("the memoized queue body holds %d bytes in a %d-byte allocation", len(body), cap(body))
	}
	want, err := json.Marshal(queueResponse(snap, s.forecastFor(snap)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Error("the cold queue listing diverges from encoding/json")
	}

	v, ok := s.jobResponse(snap, snap.FQueued[depth/2].ID)
	if !ok || v.PredictedStart == nil {
		t.Fatalf("no forecast for a waiting job: %+v", v)
	}
	w := &captureResponse{h: make(http.Header)}
	if reply := testing.AllocsPerRun(200, func() { w.body.Reset(); WriteJSON(w, http.StatusOK, v) }); reply > 2 {
		t.Errorf("a JobView reply allocates %.0f objects, want 2 as under json.Encoder", reply)
	}
}

// TestMetricsScrapeDoesNotRenderQueue pins QueueDepth: a /metrics scrape of
// a version nobody has listed reports the queue's depth without rendering
// its views, and reports the number the rendered views have.
func TestMetricsScrapeDoesNotRenderQueue(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 16, Scheduler: "easy"})
	defer func() {
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	}()
	h := s.Handler()
	doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 16, Runtime: 100000}, nil)
	for i := 0; i < 20; i++ {
		doJSON(t, h, "POST", "/v1/jobs", SubmitRequest{Width: 4, Runtime: 500}, nil)
	}
	rec := doJSON(t, h, "GET", "/metrics", nil, nil)
	snap := s.Current()
	if snap.queued.Load() != nil {
		t.Fatal("a /metrics scrape rendered the queue's views to count them")
	}
	depth := len(snap.QueuedViews())
	if line := fmt.Sprintf("\nschedd_queue_depth %d\n", depth); depth != 20 || !bytes.Contains(rec.Body.Bytes(), []byte(line)) {
		t.Fatalf("scrape does not report the %d rendered views:\n%s", depth, rec.Body.String())
	}
	var again bytes.Buffer
	WriteMetrics(&again, snap)
	if !bytes.Equal(again.Bytes(), rec.Body.Bytes()) {
		t.Fatal("the metrics body changed once the queue's views were rendered")
	}
}
