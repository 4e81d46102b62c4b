// Package runner is the experiment execution engine: it fans independent,
// deterministic simulation tasks out across a bounded worker pool while
// guaranteeing results come back in task order — so parallel output is
// byte-identical to a serial run — and layers on the operational pieces a
// factorial study wants: a content-addressed on-disk result cache (Cache),
// a JSONL run journal with an end-of-run summary (Journal), live progress
// with an ETA (Printer), and fail-fast errors.
//
// The sweep and exp packages are built on it; cmd/sweep and
// cmd/experiments expose it through the -j, -cache-dir and -journal flags.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Task is one unit of work: a pure function with a deterministic identity.
type Task[T any] struct {
	// Key is the canonical spec of the task: every input that affects the
	// result must appear in it, since Fn must be a pure function of Key. It
	// names the task in the journal and progress output and, when a cache
	// is configured, is hashed into the cache filename.
	Key string
	// Fn computes the result. It should honor ctx cancellation where it
	// can; tasks that ignore ctx still work but cancel less promptly.
	Fn func(ctx context.Context) (T, error)
}

// Options tune one Run call. The zero value runs with NumCPU workers, no
// cache, no journal and no progress.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.NumCPU(). One worker
	// runs the tasks one at a time in task order.
	Workers int
	// Cache, when non-nil, is consulted before running each task and
	// updated after it succeeds. Cache write failures are journalled but
	// never fail the run.
	Cache *Cache
	// Journal, when non-nil, receives one event per task start/finish plus
	// a run summary.
	Journal *Journal
	// Progress, when non-nil, receives one "[done/total] ... eta" line per
	// completed task.
	Progress *Printer
}

// TaskError wraps a task failure with the task's identity.
type TaskError struct {
	Index int
	Key   string
	Err   error
}

func (e *TaskError) Error() string { return fmt.Sprintf("task %q: %v", e.Key, e.Err) }
func (e *TaskError) Unwrap() error { return e.Err }

// RunSummary aggregates one Run call.
type RunSummary struct {
	Tasks     int `json:"tasks"`
	CacheHits int `json:"cache_hits"`
	Misses    int `json:"cache_misses"`
	Errors    int `json:"errors"`
	// Wall is the elapsed time of the whole Run call; CPU is the summed
	// duration of the individual tasks. CPU/Wall approximates the speedup
	// the pool delivered.
	Wall time.Duration `json:"wall_ns"`
	CPU  time.Duration `json:"cpu_ns"`
}

// state carries the per-run shared counters; every mutation is serialized
// through mu so tasks on any worker can report safely.
type state struct {
	opt   Options
	total int
	start time.Time

	mu   sync.Mutex
	sum  RunSummary
	done int
}

// Run executes tasks on a bounded worker pool and returns their results in
// task order, regardless of completion order. The first task error cancels
// the outstanding work and is returned; the returned slice then holds the
// results completed so far (zero values elsewhere).
func Run[T any](ctx context.Context, tasks []Task[T], opt Options) ([]T, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = max(1, min(workers, len(tasks)))

	st := &state{opt: opt, total: len(tasks), start: time.Now()}
	st.sum.Tasks = len(tasks)
	if opt.Journal != nil {
		opt.Journal.Event(Event{Type: EventRunStart, Tasks: len(tasks), Workers: workers})
	}

	results := make([]T, len(tasks))
	errs := make([]error, len(tasks))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range tasks {
			select {
			case idx <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if errs[i] = runOne(runCtx, &tasks[i], i, results, st); errs[i] != nil {
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()

	st.mu.Lock()
	st.sum.Wall = time.Since(st.start)
	sum := st.sum
	st.mu.Unlock()
	if opt.Journal != nil {
		opt.Journal.finishRun(sum)
	}
	return results, firstError(ctx, errs)
}

// runOne executes (or loads from cache) a single task, journalling and
// reporting progress. It writes the result into results[i].
func runOne[T any](ctx context.Context, t *Task[T], i int, results []T, st *state) error {
	if st.opt.Journal != nil {
		st.opt.Journal.Event(Event{Type: EventTaskStart, Task: t.Key})
	}
	start := time.Now()

	cache := st.opt.Cache
	if cache != nil {
		var v T
		if cache.Get(t.Key, &v) {
			results[i] = v
			st.finishTask(t.Key, time.Since(start), true, nil)
			return nil
		}
	}
	v, err := t.Fn(ctx)
	dur := time.Since(start)
	if err != nil {
		st.finishTask(t.Key, dur, false, err)
		return &TaskError{Index: i, Key: t.Key, Err: err}
	}
	results[i] = v
	if cache != nil {
		if perr := cache.Put(t.Key, v); perr != nil && st.opt.Journal != nil {
			st.opt.Journal.Event(Event{Type: EventCacheWriteError, Task: t.Key, Err: perr.Error()})
		}
	}
	st.finishTask(t.Key, dur, false, nil)
	return nil
}

// finishTask updates counters, prints one progress line with an ETA
// extrapolated from throughput so far, and journals the completion. The line
// is printed under the lock that numbered it, so [k/n] lines come out in
// order.
func (st *state) finishTask(key string, dur time.Duration, hit bool, err error) {
	verb := "done"
	st.mu.Lock()
	st.done++
	st.sum.CPU += dur
	switch {
	case err != nil:
		st.sum.Errors++
		verb = "FAILED"
	case hit:
		st.sum.CacheHits++
		verb = "cached"
	default:
		st.sum.Misses++
	}
	eta := time.Duration(float64(time.Since(st.start)) / float64(st.done) * float64(st.total-st.done))
	st.opt.Progress.Printf("[%d/%d] %s %s (%.0f ms, eta %s)\n",
		st.done, st.total, verb, key, durMS(dur), eta.Round(100*time.Millisecond))
	st.mu.Unlock()

	if st.opt.Journal != nil {
		e := Event{Type: EventTaskFinish, Task: key, DurMS: durMS(dur), CacheHit: hit}
		if err != nil {
			e.Err = err.Error()
		}
		st.opt.Journal.Event(e)
	}
}

// firstError returns the root-cause failure: a task cancelled because a
// sibling failed (it lost the race with the real error) is only reported
// when nothing better exists, and the parent context's error after that.
func firstError(ctx context.Context, errs []error) error {
	var cancelled error
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, context.Canceled):
			return err
		case cancelled == nil:
			cancelled = err
		}
	}
	if cancelled != nil {
		return cancelled
	}
	return ctx.Err()
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
