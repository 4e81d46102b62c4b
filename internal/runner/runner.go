// Package runner is the experiment execution engine: it fans independent,
// deterministic simulation tasks out across a bounded worker pool while
// guaranteeing results come back in task order — so parallel output is
// byte-identical to a serial run — and layers on the operational pieces a
// factorial study wants: a content-addressed on-disk result cache (Cache),
// a JSONL run journal with an end-of-run summary (Journal), live progress
// with an ETA (Printer), per-task timeouts, bounded retries for transient
// failures, and fail-fast or collect-all error policies.
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
	// result must appear in it. It names the task in the journal and
	// progress output and, when a cache is configured, is hashed into the
	// cache filename.
	Key string
	// Cacheable marks the result as eligible for the on-disk cache. Only
	// set it when Fn is a pure function of Key.
	Cacheable bool
	// Fn computes the result. It should honor ctx cancellation where it
	// can; tasks that ignore ctx still work but cancel less promptly.
	Fn func(ctx context.Context) (T, error)
}

// Options tune one Run call. The zero value runs with NumCPU workers, no
// cache, no journal, no progress, fail-fast errors and no retries.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.NumCPU(). Workers == 1
	// runs every task inline on the calling goroutine in task order — the
	// legacy serial path, with no goroutines involved.
	Workers int
	// Cache, when non-nil, is consulted before running cacheable tasks and
	// updated after they succeed. Cache write failures are journalled but
	// never fail the run.
	Cache *Cache
	// Journal, when non-nil, receives one event per task start/finish plus
	// a run summary.
	Journal *Journal
	// Progress, when non-nil, receives one "[done/total] ... eta" line per
	// completed task.
	Progress *Printer
	// CollectErrors selects the failure policy: false (default) cancels
	// outstanding work on the first error and returns it; true keeps
	// going and returns every task error joined together.
	CollectErrors bool
	// Retries is how many times a task is re-run after a failure that
	// Transient reports as retryable.
	Retries int
	// Transient classifies errors worth retrying. Nil means no error is.
	Transient func(error) bool
	// Timeout, when positive, bounds each task attempt via its context.
	Timeout time.Duration
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
	Retries   int `json:"retries"`
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
// task order, regardless of completion order. With Options.Workers == 1 it
// degenerates to the plain serial loop. On a fail-fast error the returned
// slice holds the results completed so far (zero values elsewhere).
func Run[T any](ctx context.Context, tasks []Task[T], opt Options) ([]T, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}

	st := &state{opt: opt, total: len(tasks), start: time.Now()}
	st.sum.Tasks = len(tasks)
	if opt.Journal != nil {
		opt.Journal.Event(Event{Type: EventRunStart, Tasks: len(tasks), Workers: workers})
	}

	results := make([]T, len(tasks))
	errs := make([]error, len(tasks))

	if workers == 1 {
		for i := range tasks {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				if !opt.CollectErrors {
					break
				}
				continue
			}
			errs[i] = runOne(ctx, &tasks[i], i, results, st)
			if errs[i] != nil && !opt.CollectErrors {
				break
			}
		}
	} else {
		runParallel(ctx, tasks, results, errs, st, workers)
	}

	st.mu.Lock()
	st.sum.Wall = time.Since(st.start)
	sum := st.sum
	st.mu.Unlock()
	if opt.Journal != nil {
		opt.Journal.finishRun(sum)
	}
	return results, joinErrors(ctx, errs, opt.CollectErrors)
}

// runParallel is the pool path: a producer feeds task indices to workers,
// each of which records results/errors into the order-preserving slices.
func runParallel[T any](ctx context.Context, tasks []Task[T], results []T, errs []error, st *state, workers int) {
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
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				err := runOne(runCtx, &tasks[i], i, results, st)
				if err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					if !st.opt.CollectErrors {
						cancel()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// runOne executes (or loads from cache) a single task, journalling and
// reporting progress. It writes the result into results[i].
func runOne[T any](ctx context.Context, t *Task[T], i int, results []T, st *state) error {
	if st.opt.Journal != nil {
		st.opt.Journal.Event(Event{Type: EventTaskStart, Task: t.Key})
	}
	start := time.Now()

	cache := st.opt.Cache
	if cache != nil && t.Cacheable {
		var v T
		if cache.Get(t.Key, &v) {
			results[i] = v
			st.finishTask(t.Key, time.Since(start), true, 1, nil)
			return nil
		}
	}

	var v T
	var err error
	attempts := 0
	for {
		attempts++
		attemptCtx := ctx
		var cancelAttempt context.CancelFunc
		if st.opt.Timeout > 0 {
			attemptCtx, cancelAttempt = context.WithTimeout(ctx, st.opt.Timeout)
		}
		v, err = t.Fn(attemptCtx)
		if cancelAttempt != nil {
			cancelAttempt()
		}
		if err == nil || ctx.Err() != nil {
			break
		}
		if attempts > st.opt.Retries || st.opt.Transient == nil || !st.opt.Transient(err) {
			break
		}
		st.retry(t.Key, attempts, err)
	}

	dur := time.Since(start)
	if err != nil {
		st.finishTask(t.Key, dur, false, attempts, err)
		return &TaskError{Index: i, Key: t.Key, Err: err}
	}
	results[i] = v
	if cache != nil && t.Cacheable {
		if perr := cache.Put(t.Key, v); perr != nil && st.opt.Journal != nil {
			st.opt.Journal.Event(Event{Type: EventCacheWriteError, Task: t.Key, Err: perr.Error()})
		}
	}
	st.finishTask(t.Key, dur, false, attempts, nil)
	return nil
}

// retry records one retry of a transient failure.
func (st *state) retry(key string, attempt int, err error) {
	st.mu.Lock()
	st.sum.Retries++
	st.mu.Unlock()
	if st.opt.Journal != nil {
		st.opt.Journal.Event(Event{Type: EventTaskRetry, Task: key, Attempt: attempt, Err: err.Error()})
	}
	st.opt.Progress.Printf("[retry %d] %s: %v\n", attempt, key, err)
}

// finishTask updates counters, prints one progress line with an ETA
// extrapolated from throughput so far, and journals the completion. The line
// is printed under the lock that numbered it, so [k/n] lines come out in
// order.
func (st *state) finishTask(key string, dur time.Duration, hit bool, attempts int, err error) {
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
		if attempts > 1 {
			e.Attempt = attempts
		}
		if err != nil {
			e.Err = err.Error()
		}
		st.opt.Journal.Event(e)
	}
}

// joinErrors folds per-task errors into one error honoring the policy.
func joinErrors(ctx context.Context, errs []error, collect bool) error {
	if !collect {
		// Prefer the root-cause failure: a cancelled sibling task (it lost
		// the race with the real error) is only reported when nothing
		// better exists.
		var cancelled error
		for _, err := range errs {
			if err == nil {
				continue
			}
			if errors.Is(err, context.Canceled) {
				if cancelled == nil {
					cancelled = err
				}
				continue
			}
			return err
		}
		if cancelled != nil {
			return cancelled
		}
		return ctx.Err()
	}
	all := make([]error, 0, len(errs)+1)
	for _, err := range errs {
		if err != nil {
			all = append(all, err)
		}
	}
	if err := ctx.Err(); err != nil {
		all = append(all, err)
	}
	return errors.Join(all...)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
