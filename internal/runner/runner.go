// Package runner is the experiment execution engine: it fans independent,
// deterministic simulation tasks out across a bounded worker pool while
// guaranteeing results come back in task order — so parallel output is
// byte-identical to a serial run — with live progress, the tallies for
// the caller's end-of-run summary (Printer) and fail-fast errors. Every
// run computes its results: nothing is kept on disk between runs.
//
// sweep.RunCells, the one cell runner of the sweep and exp packages, is
// built on it; cmd/sweep and cmd/experiments expose it through the -j flag.
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
	// Key names the task in progress output and errors.
	Key string
	// Fn computes the result. It should honor ctx cancellation where it
	// can; tasks that ignore ctx still work but cancel less promptly.
	Fn func(ctx context.Context) (T, error)
}

// Options tune one Run call. The zero value runs with NumCPU workers and no
// progress.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.NumCPU(). One worker
	// runs the tasks one at a time in task order.
	Workers int
	// Progress, when non-nil, receives one "[done/total] ... eta" line per
	// completed task and tallies the tasks' time; the caller, which knows
	// what the whole run was, closes it with Progress.Summary.
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

// state carries the per-run shared counters; every mutation is serialized
// through mu so tasks on any worker can report safely.
type state struct {
	opt   Options
	total int
	start time.Time

	mu   sync.Mutex
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

	return results, firstError(ctx, errs)
}

// runOne executes a single task and reports its progress. It writes the
// result into results[i].
func runOne[T any](ctx context.Context, t *Task[T], i int, results []T, st *state) error {
	start := time.Now()
	v, err := t.Fn(ctx)
	st.finishTask(t.Key, time.Since(start), err)
	if err != nil {
		return &TaskError{Index: i, Key: t.Key, Err: err}
	}
	results[i] = v
	return nil
}

// finishTask updates counters and prints one progress line with an ETA
// extrapolated from throughput so far. The line is printed under the lock
// that numbered it, so [k/n] lines come out in order.
func (st *state) finishTask(key string, dur time.Duration, err error) {
	verb := "done"
	if err != nil {
		verb = "FAILED"
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.done++
	st.opt.Progress.Tally(dur)
	eta := time.Duration(float64(time.Since(st.start)) / float64(st.done) * float64(st.total-st.done))
	st.opt.Progress.Printf("[%d/%d] %s %s (%.0f ms, eta %s)\n",
		st.done, st.total, verb, key, float64(dur)/float64(time.Millisecond), eta.Round(100*time.Millisecond))
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
