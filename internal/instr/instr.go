// Package instr holds a daemon's debug instruments: a lock-free int64
// counter or gauge, a preallocated log-linear histogram of durations, and
// the ordered set they are registered into once, at construction, which
// renders them all as one JSON object. An instrument has a fixed size and
// allocates nothing when it is updated, so what it costs grows with the
// events it counts, not with the state behind them. The numbers are
// process-local: they are served on GET /v1/debug/stats and never in
// /metrics, whose body a leader, its followers and a front end share.
package instr

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// Counter is a lock-free int64: a counter when only Add moves it, a gauge
// when Set does.
type Counter struct{ v atomic.Int64 }

// Add adds d and returns the new value.
func (c *Counter) Add(d int64) int64 { return c.v.Add(d) }

// Set stores v.
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

const (
	// subBits gives each power of two 8 buckets, so a bucket is at most
	// 12.5 % wide.
	subBits = 3
	// maxBits bounds the values told apart: up to 2^40 ns, 18 minutes.
	// Longer ones count in the last bucket; the maximum stays exact.
	maxBits    = 40
	numBuckets = (maxBits - subBits + 1) << subBits
)

// bucket maps a value to its bucket: values below 8 have one each, and
// each power of two above is split into 8 equal parts.
func bucket(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return min(e<<subBits+int(v>>uint(e)), numBuckets-1)
}

// bounds returns bucket b's lowest value and its width.
func bounds(b int) (low, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	e := b>>subBits - 1
	m := b&(1<<subBits-1) | 1<<subBits
	return math.Ldexp(float64(m), e), math.Ldexp(1, e)
}

// Histogram is a log-linear histogram of durations, with their sum and
// maximum. Its buckets are allocated with it; Observe only adds.
type Histogram struct {
	counts   [numBuckets]atomic.Uint32
	sum, max atomic.Int64
}

// Observe records one duration; a negative one counts as 0.
func (h *Histogram) Observe(d time.Duration) {
	v := max(int64(d), 0)
	h.counts[bucket(uint64(v))].Add(1)
	h.sum.Add(v)
	for m := h.max.Load(); v > m && !h.max.CompareAndSwap(m, v); m = h.max.Load() {
	}
}

// appendJSON renders the histogram as an object of its count and, in
// microseconds, its sum, maximum, median and 99th percentile. A quantile
// is the nearest-rank sample, placed inside its bucket by linear
// interpolation.
func (h *Histogram) appendJSON(b []byte) []byte {
	var counts [numBuckets]uint32
	n := 0
	for i := range counts {
		counts[i] = h.counts[i].Load()
		n += int(counts[i])
	}
	quantile := func(q float64) float64 {
		rank, seen := max(int(math.Ceil(q*float64(n))), 1), 0
		for i, c := range counts {
			if seen+int(c) >= rank {
				low, width := bounds(i)
				return math.Round(low + width*(float64(rank-seen)-0.5)/float64(c))
			}
			seen += int(c)
		}
		return 0
	}
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = appendUS(append(b, `,"sum_us":`...), float64(h.sum.Load()))
	b = appendUS(append(b, `,"max_us":`...), float64(h.max.Load()))
	if n > 0 {
		b = appendUS(append(b, `,"p50_us":`...), quantile(0.5))
		b = appendUS(append(b, `,"p99_us":`...), quantile(0.99))
	}
	return append(b, '}')
}

// appendUS writes ns nanoseconds as microseconds, to the nanosecond.
func appendUS(b []byte, ns float64) []byte {
	return strconv.AppendFloat(b, ns/1e3, 'f', -1, 64)
}

// Set is an ordered set of named instruments. Register everything before
// the set is shared; after that it may be rendered from any goroutine
// while the instruments are updated from others.
type Set struct{ entries []entry }

// entry is one registered instrument: exactly one of c and h is set.
type entry struct {
	name string
	c    *Counter
	h    *Histogram
}

// Counter registers and returns a new counter. A name is a plain
// identifier, its JSON key; registering one twice panics.
func (s *Set) Counter(name string) *Counter {
	c := new(Counter)
	s.add(entry{name: name, c: c})
	return c
}

// Histogram registers and returns a new histogram, under the same rules
// as Counter.
func (s *Set) Histogram(name string) *Histogram {
	h := new(Histogram)
	s.add(entry{name: name, h: h})
	return h
}

// Grow reserves room for n more instruments: one allocation for the set.
func (s *Set) Grow(n int) { s.entries = slices.Grow(s.entries, n) }

func (s *Set) add(e entry) {
	for _, o := range s.entries {
		if o.name == e.name {
			panic("instr: instrument " + strconv.Quote(e.name) + " registered twice")
		}
	}
	s.entries = append(s.entries, e)
}

// AppendJSON renders the set as one JSON object, in registration order: a
// counter as a number, a histogram as the object Histogram describes.
func (s *Set) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	for i, e := range s.entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), e.name...), `":`...)
		if e.c != nil {
			b = strconv.AppendInt(b, e.c.Load(), 10)
		} else {
			b = e.h.appendJSON(b)
		}
	}
	return append(b, '}')
}

// Walk calls visit with every scalar of the JSON document data, in document
// order. A scalar's key is the dot-joined path of object keys and array
// indexes that leads to it; its value is its JSON text, a string's
// unquoted. It is how a client reads a stats body without mirroring it.
func Walk(data []byte, visit func(key, value string)) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var walk func(key string) error
	walk = func(key string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case json.Delim:
			for i := 0; dec.More(); i++ {
				sub := strconv.Itoa(i)
				if t == '{' {
					k, err := dec.Token()
					if err != nil {
						return err
					}
					sub = k.(string)
				}
				if key != "" {
					sub = key + "." + sub
				}
				if err := walk(sub); err != nil {
					return err
				}
			}
			_, err = dec.Token()
			return err
		case string:
			visit(key, t)
		case json.Number:
			visit(key, t.String())
		case bool:
			visit(key, strconv.FormatBool(t))
		default:
			visit(key, "null")
		}
		return nil
	}
	return walk("")
}
