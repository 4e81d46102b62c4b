package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// squares builds n tasks computing i*i, optionally staggered so completion
// order scrambles relative to task order.
func squares(n int, stagger bool) []Task[int] {
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{
			Key: fmt.Sprintf("sq-%d", i),
			Fn: func(ctx context.Context) (int, error) {
				if stagger {
					// Later tasks finish first.
					time.Sleep(time.Duration(n-i) * time.Millisecond)
				}
				return i * i, nil
			},
		}
	}
	return tasks
}

// TestSerialOrder: one worker runs the tasks one at a time, in task order,
// and its progress lines come out in that order too.
func TestSerialOrder(t *testing.T) {
	var sb strings.Builder
	got, err := Run(context.Background(), squares(10, true), Options{Workers: 1, Progress: NewPrinter(&sb)})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("progress lines = %d, want 10:\n%s", len(lines), sb.String())
	}
	for i, line := range lines[:10] {
		if want := fmt.Sprintf("[%d/10] done sq-%d ", i+1, i); !strings.HasPrefix(line, want) {
			t.Errorf("progress line %d = %q, want prefix %q", i, line, want)
		}
	}
}

func TestParallelPreservesOrder(t *testing.T) {
	got, err := Run(context.Background(), squares(16, true), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Errorf("got[%d] = %d, want %d (order not preserved)", i, v, i*i)
		}
	}
}

func TestWorkerBound(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	tasks := make([]Task[int], 24)
	for i := range tasks {
		tasks[i] = Task[int]{
			Key: fmt.Sprintf("t%d", i),
			Fn: func(ctx context.Context) (int, error) {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				return 0, nil
			},
		}
	}
	if _, err := Run(context.Background(), tasks, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, worker bound is %d", p, workers)
	}
}

func TestFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	tasks := make([]Task[int], 32)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			Key: fmt.Sprintf("t%d", i),
			Fn: func(ctx context.Context) (int, error) {
				ran.Add(1)
				if i == 3 {
					return 0, boom
				}
				// Honor cancellation so the pool can drain early.
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(5 * time.Millisecond):
				}
				return i, nil
			},
		}
	}
	_, err := Run(context.Background(), tasks, Options{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	var te *TaskError
	if !errors.As(err, &te) || te.Key != "t3" {
		t.Fatalf("err = %#v, want TaskError for t3", err)
	}
	if n := ran.Load(); n == 32 {
		t.Error("fail-fast ran every task")
	}
}

func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := Run(ctx, squares(8, false), Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	_ = got
}

func TestProgressLines(t *testing.T) {
	var sb strings.Builder
	var mu sync.Mutex
	p := NewPrinter(writerFunc(func(b []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(b)
	}))
	if _, err := Run(context.Background(), squares(6, true), Options{Workers: 3, Progress: p}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	mu.Unlock()
	if len(lines) != 6 {
		t.Fatalf("progress lines = %d, want 6:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[5], "[6/6]") || !strings.Contains(lines[5], "eta") {
		t.Errorf("last line missing completion count or eta: %q", lines[5])
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

func TestNilPrinterSafe(t *testing.T) {
	var p *Printer
	p.Printf("into the void %d\n", 1)
	NewPrinter(nil).Printf("also fine\n")
}

// TestSummaryString: the caller closes a run with one summary line (what
// ran, wall and CPU time), the CPU time being what the run's tasks and the
// caller tallied; a failed task prints FAILED, and its run prints nothing
// more.
func TestSummaryString(t *testing.T) {
	var sb strings.Builder
	start, p := time.Now(), NewPrinter(&sb)
	if _, err := Run(context.Background(), squares(4, false), Options{Workers: 2, Progress: p}); err != nil {
		t.Fatal(err)
	}
	p.Tally(1500 * time.Millisecond)
	p.Summary("4 cells", start)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if last := lines[len(lines)-1]; len(lines) != 5 || !strings.HasPrefix(last, "4 cells: wall ") || !strings.Contains(last, ", cpu 1.5") {
		t.Errorf("progress %q, want 4 task lines and \"4 cells: wall …, cpu 1.5…s\"", sb.String())
	}

	sb.Reset()
	tasks := []Task[int]{{
		Key: "doomed",
		Fn:  func(ctx context.Context) (int, error) { return 0, fmt.Errorf("kaput") },
	}}
	if _, err := Run(context.Background(), tasks, Options{Workers: 1, Progress: NewPrinter(&sb)}); err == nil {
		t.Fatal("want error")
	}
	if out := sb.String(); !strings.HasPrefix(out, "[1/1] FAILED doomed ") || strings.Count(out, "\n") != 1 {
		t.Errorf("failed run's progress = %q, want one FAILED line", out)
	}
}
