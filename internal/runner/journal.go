package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event types emitted into the journal.
const (
	EventRunStart        = "run_start"
	EventTaskStart       = "task_start"
	EventTaskFinish      = "task_finish"
	EventCacheWriteError = "cache_write_error"
	EventRunSummary      = "run_summary"
)

// Event is one JSONL journal line. Fields are omitted when not relevant to
// the event type.
type Event struct {
	Time     string      `json:"t,omitempty"`
	Type     string      `json:"type"`
	Task     string      `json:"task,omitempty"`
	Tasks    int         `json:"tasks,omitempty"`
	Workers  int         `json:"workers,omitempty"`
	DurMS    float64     `json:"dur_ms,omitempty"`
	CacheHit bool        `json:"cache_hit,omitempty"`
	Err      string      `json:"err,omitempty"`
	Summary  *RunSummary `json:"summary,omitempty"`
}

// Journal records run events as JSON Lines and aggregates a cumulative
// summary across every Run call that shares it. It is safe for concurrent
// use; a nil writer makes it a pure counter (handy for tests and for
// printing a summary without persisting events).
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	sum RunSummary
	// now is swappable for tests.
	now func() time.Time
}

// NewJournal builds a journal writing JSONL events to w (nil: count only).
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, now: time.Now}
}

// Event stamps and writes one event. Encoding or write failures are
// deliberately dropped: the journal is observability, not control flow.
func (j *Journal) Event(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.write(e)
}

func (j *Journal) write(e Event) {
	if j.w == nil {
		return
	}
	if e.Time == "" {
		e.Time = j.now().UTC().Format(time.RFC3339Nano)
	}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	fmt.Fprintf(j.w, "%s\n", data)
}

// finishRun merges one Run's summary into the cumulative totals and
// journals it.
func (j *Journal) finishRun(s RunSummary) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sum.Tasks += s.Tasks
	j.sum.CacheHits += s.CacheHits
	j.sum.Misses += s.Misses
	j.sum.Errors += s.Errors
	j.sum.Wall += s.Wall
	j.sum.CPU += s.CPU
	j.write(Event{Type: EventRunSummary, Summary: &s})
}

// Summary returns the cumulative totals over every Run sharing this
// journal.
func (j *Journal) Summary() RunSummary {
	if j == nil {
		return RunSummary{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sum
}

// String renders a summary as the one-line report the commands print.
func (s RunSummary) String() string {
	return fmt.Sprintf("%d cells: %d cache hits, %d misses, %d errors, wall %s, cpu %s",
		s.Tasks, s.CacheHits, s.Misses, s.Errors,
		s.Wall.Round(time.Millisecond), s.CPU.Round(time.Millisecond))
}
