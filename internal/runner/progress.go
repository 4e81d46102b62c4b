package runner

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Printer serializes progress lines from concurrently completing tasks
// onto one writer, so interleaved output can never shear mid-line. All
// methods are nil-receiver safe: a nil Printer (or one over a nil writer)
// is a silent sink, which lets callers wire progress unconditionally.
type Printer struct {
	mu  sync.Mutex
	w   io.Writer
	cpu atomic.Int64 // nanoseconds of work tallied so far (Tally)
}

// NewPrinter wraps w (which may be nil) in a concurrency-safe printer.
func NewPrinter(w io.Writer) *Printer { return &Printer{w: w} }

// Tally adds d, the time one piece of the run took, to the CPU time
// Summary reports.
func (p *Printer) Tally(d time.Duration) {
	if p != nil {
		p.cpu.Add(int64(d))
	}
}

// Summary prints a run's closing line: what ran, the wall time since
// start and the CPU time tallied.
func (p *Printer) Summary(what string, start time.Time) {
	if p != nil {
		p.Printf("%s: wall %s, cpu %s\n", what,
			time.Since(start).Round(time.Millisecond), time.Duration(p.cpu.Load()).Round(time.Millisecond))
	}
}

// Printf writes one formatted progress line.
func (p *Printer) Printf(format string, args ...any) {
	if p == nil || p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, format, args...)
}
