package main

import (
	"bufio"
	"os"
	"strconv"
	"time"
)

// span is one traced interval. A folded span stands for n calls too short
// to record one by one (a scheduler call is ~1 µs and a study round makes
// ~600 000 of them): start and end bracket the first and the last call and
// busy is their summed duration. A plain span has n == 0 and is busy for
// its whole interval.
type span struct {
	id, parent int32
	name       string
	layer      string
	start, end int64 // ns since the tracer's epoch
	n          int64
	busy       int64
}

// dur is the time the span's own layer or its callees were running.
func (s span) dur() int64 {
	if s.n > 0 {
		return s.busy
	}
	return s.end - s.start
}

// tracer records spans into a preallocated slice and writes them out when
// the run ends. Every method is a no-op on a nil tracer, so the untraced
// rounds that produce the end-to-end metrics run the same code without it.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int32, name, layer string) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, layer: layer, start: int64(time.Since(t.epoch))})
	return id
}

// finish closes the span begin returned.
func (t *tracer) finish(id int32) {
	if t == nil {
		return
	}
	t.spans[id-1].end = int64(time.Since(t.epoch))
}

// fold records the calls a callAcc summed up as one span under parent.
func (t *tracer) fold(parent int32, name, layer string, a callAcc) int32 {
	if t == nil || a.n == 0 {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		id: id, parent: parent, name: name, layer: layer,
		start: int64(a.first.Sub(t.epoch)), end: int64(a.last.Sub(t.epoch)),
		n: a.n, busy: int64(a.busy),
	})
	return id
}

// selfByLayer sums each layer's self time: a span's duration minus the
// duration of its direct children.
func (t *tracer) selfByLayer() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.parent] += s.dur()
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.layer] += time.Duration(s.dur() - child[s.id])
	}
	return out
}

// write emits the spans as JSON lines:
// {"id":2,"parent":1,"name":"sim.Run","layer":"sim","start_ns":12,"end_ns":99}
// with "n" and "busy_ns" added on folded spans.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range t.spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(s.id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, s.name)
		b = append(b, `,"layer":`...)
		b = strconv.AppendQuote(b, s.layer)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		if s.n > 0 {
			b = append(b, `,"n":`...)
			b = strconv.AppendInt(b, s.n, 10)
			b = append(b, `,"busy_ns":`...)
			b = strconv.AppendInt(b, s.busy, 10)
		}
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
