package serve

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// SubmitRequest is the body of POST /v1/jobs. Runtime is the job's actual
// execution time — this is a simulation service, so the "ground truth" the
// engine needs travels with the submission. Estimate defaults to Runtime
// (a perfectly estimated job) when omitted.
type SubmitRequest struct {
	Width    int   `json:"width"`
	Runtime  int64 `json:"runtime"`
	Estimate int64 `json:"estimate,omitempty"`
	User     int   `json:"user,omitempty"`
}

// JobView is the service's representation of one job, returned by submit,
// status, and queue endpoints.
type JobView struct {
	ID       int    `json:"id"`
	State    string `json:"state"`
	Width    int    `json:"width"`
	Runtime  int64  `json:"runtime"`
	Estimate int64  `json:"estimate"`
	Arrival  int64  `json:"arrival"`
	Category string `json:"category"`
	// Start and End are set once the job has started / finished.
	Start *int64 `json:"start,omitempty"`
	End   *int64 `json:"end,omitempty"`
	// PredictedStart is the start-time forecast for queued jobs: exact
	// where the scheduler holds a reservation, a conservative dry-run of
	// the backfill schedule otherwise.
	PredictedStart *int64 `json:"predicted_start,omitempty"`
	// Slowdown is the bounded slowdown, reported for completed jobs.
	Slowdown *float64 `json:"slowdown,omitempty"`
}

// QueueResponse is the body of GET /v1/queue.
type QueueResponse struct {
	// Version is the snapshot publication number the response was rendered
	// from; it increases monotonically with every observable state change.
	Version   uint64    `json:"version"`
	Now       int64     `json:"now"`
	Scheduler string    `json:"scheduler"`
	Procs     int       `json:"procs"`
	ProcsBusy int       `json:"procs_busy"`
	Submitted int64     `json:"submitted"`
	Pending   int       `json:"pending"`
	Queued    []JobView `json:"queued"`
	Running   []JobView `json:"running"`
	Completed int64     `json:"completed"`
	Cancelled int64     `json:"cancelled"`
}

// HealthResponse is the body of GET /healthz, on a daemon, a replica and a
// federation front end alike (the front end folds its shards' into one).
type HealthResponse struct {
	Status   string `json:"status"`
	Now      int64  `json:"now"`
	Pending  int    `json:"pending"`
	Version  uint64 `json:"version"`
	Draining bool   `json:"draining,omitempty"`
}

// ErrorResponse is the body of every non-2xx response: the daemon's, a
// replica's and a federation front end's.
type ErrorResponse struct {
	Error string `json:"error"`
}

// viewEntry is a rendered view and the values its optional fields point at,
// in one allocation.
type viewEntry struct {
	JobView
	start, end int64
	slowdown   float64
}

// makeView converts a session snapshot into the wire representation.
func makeView(info sim.JobInfo, th job.Thresholds) *JobView {
	j := info.Job
	e := &viewEntry{start: info.Start, end: info.End, JobView: JobView{
		ID:       j.ID,
		State:    info.State.String(),
		Width:    j.Width,
		Runtime:  j.Runtime,
		Estimate: j.Estimate,
		Arrival:  j.Arrival,
		Category: th.Classify(j).String(),
	}}
	if info.Start >= 0 {
		e.Start = &e.start
	}
	if info.State == sim.StateDone && info.End >= 0 {
		e.End = &e.end
		delay := (info.End - j.Arrival) - j.Runtime
		if delay < 0 {
			delay = 0
		}
		e.slowdown = metrics.BoundedSlowdown(delay, j.Runtime)
		e.Slowdown = &e.slowdown
	}
	return &e.JobView
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs       submit a job          → 201 JobView
//	GET    /v1/jobs/{id}  status + forecast     → 200 JobView
//	DELETE /v1/jobs/{id}  cancel a queued job   → 204
//	GET    /v1/queue      whole-service snapshot → 200 QueueResponse
//	GET    /healthz       liveness               → 200 {"status":"ok"}
//	GET    /metrics       Prometheus text format
//	GET    /v1/debug/stats  process-local state and counters → 200 Stats
//	GET    /v1/wal        journal shipping stream (see ServeWAL)
//
// With Options.Debug, the Go runtime profiler is mounted as well:
//
//	GET    /debug/pprof/  index, plus the usual profile/heap/trace endpoints
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/queue", s.handleQueue)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/debug/stats", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/wal", s.ServeWAL)
	if s.opts.Debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// The Content-Type values the API sets, one slice each for every response:
// net/http only reads them, and an Add would reallocate (len == cap).
var (
	jsonContentType    = []string{"application/json"}
	metricsContentType = []string{"text/plain; version=0.0.4"}
)

// WriteJSON writes v with the given status. Exported so the federation
// front end (internal/fed) renders responses byte-identically to a single
// daemon. A JobView — every submit and status reply — goes through the
// hand-written encoder (render.go), which writes encoding/json's bytes;
// everything else, and a view the encoder declines, through encoding/json.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	if view, isView := v.(JobView); isView {
		writeView(w, status, &view)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeView is WriteJSON for a JobView the caller holds, which it neither
// boxes nor retains.
func writeView(w http.ResponseWriter, status int, v *JobView) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	buf := renderBuf.Get().(*[]byte)
	defer renderBuf.Put(buf)
	if b, ok := appendJobView((*buf)[:0], v); ok {
		*buf = append(b, '\n')
		_, _ = w.Write(*buf)
	} else {
		_ = json.NewEncoder(w).Encode(*v)
	}
}

// WriteError maps request failures onto HTTP statuses: clientError carries
// its own, ErrStopped means the service is shutting down, anything else is
// an engine failure. Exported for the federation front end, which forwards
// shard errors unchanged.
func WriteError(w http.ResponseWriter, err error) {
	var ce *clientError
	switch {
	case errors.As(err, &ce):
		WriteJSON(w, ce.code, ErrorResponse{Error: ce.Error()})
	case errors.Is(err, ErrStopped):
		WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
	default:
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}

// maxSubmitBody bounds a POST /v1/jobs body. A submit is a few dozen bytes;
// the bound stops a client from streaming an unbounded body into the
// decoder.
const maxSubmitBody = 64 << 10

// SubmitBodyTimeout bounds how long reading a POST /v1/jobs body may take,
// from when the handler starts on it, so a client that trickles its body
// cannot hold a connection and its goroutine for as long as it likes. The
// decoder sets it on its own request and lifts it once the body is read,
// so it holds wherever DecodeSubmit runs (the federation front end too)
// and reaches no other route: a /v1/wal long poll waits its full term. A
// variable so tests can shorten it; it is not an option.
var SubmitBodyTimeout = 5 * time.Second

// readDeadliner is the net/http server's ResponseWriter as
// http.ResponseController.SetReadDeadline finds it. Asserted directly, a
// writer without it costs nothing, where the controller builds an error.
type readDeadliner interface{ SetReadDeadline(time.Time) error }

// DecodeSubmit reads a POST /v1/jobs body, at most maxSubmitBody bytes of
// it, within SubmitBodyTimeout. On failure it has already answered — 413
// past the size bound, 408 past the time bound, 400 for malformed JSON —
// and returns false. Exported for the federation front end, so both reject
// the same bodies with the same bytes.
func DecodeSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, bool) {
	var req SubmitRequest
	rd, _ := w.(readDeadliner) // a test recorder has none and reads unbounded
	if rd != nil {
		_ = rd.SetReadDeadline(time.Now().Add(SubmitBodyTimeout))
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req)
	if err == nil {
		// Only on success: a deadline left on a failed read makes net/http
		// close the connection instead of draining a trickled remainder.
		if rd != nil {
			_ = rd.SetReadDeadline(time.Time{})
		}
		return req, true
	}
	// Declared past the success return: errors.As moves them to the heap.
	var tooBig *http.MaxBytesError
	var netErr net.Error
	if errors.As(err, &tooBig) {
		WriteJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: "request body over " + strconv.Itoa(maxSubmitBody) + " bytes"})
	} else if errors.As(err, &netErr) && netErr.Timeout() {
		WriteJSON(w, http.StatusRequestTimeout, ErrorResponse{Error: "request body not read within " + SubmitBodyTimeout.String()})
	} else {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad JSON: " + err.Error()})
	}
	return req, false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := DecodeSubmit(w, r)
	if !ok {
		return
	}
	v, err := s.Submit(req)
	if err != nil {
		WriteError(w, err)
		return
	}
	s.writeSeqHeader(w)
	writeView(w, http.StatusCreated, &v)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad job id"})
		return
	}
	v, ok := s.Lookup(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job " + strconv.Itoa(id)})
		return
	}
	writeView(w, http.StatusOK, &v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad job id"})
		return
	}
	if err := s.Cancel(id); err != nil {
		WriteError(w, err)
		return
	}
	s.writeSeqHeader(w)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	// The body bytes are memoized per snapshot version, so pollers of an
	// unchanged state share one render (and one forecast dry-run) no matter
	// how many of them there are.
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.queueBody(s.snap.Load()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		Now:      snap.Now,
		Pending:  snap.Pending,
		Version:  snap.Version,
		Draining: snap.Draining,
	})
}

// writeSeqHeader stamps a successful write response with the last durable
// journal sequence — by the time the mailbox acknowledges a write, its
// record is on disk, so this seq is at or past the write's own. A client
// that replays it to a follower as ?min_seq= gets read-your-writes.
func (s *Server) writeSeqHeader(w http.ResponseWriter) {
	if seq := s.walSeq.Load(); seq > 0 {
		w.Header().Set("X-Schedd-Seq", strconv.FormatUint(seq, 10))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = metricsContentType
	_, _ = w.Write(metricsBody(s.snap.Load()))
}
