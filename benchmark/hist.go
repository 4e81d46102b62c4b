package main

import (
	"math"
	"math/bits"
	"time"
)

// latHist is a log-linear latency histogram: 64 buckets per power of two,
// so a bucket is at most 1.6 % wide, from 1 ns to 2^47 ns. The driver keeps
// one per slice of a round, all allocated before the first round, so its own
// heap stays at a few hundred kilobytes however many samples a run takes.
// That matters because the daemons under test retain half a megabyte to
// seven: a slice of a million samples next to them would halve how often the
// collector runs and make later rounds faster than earlier ones (measured
// on reads: 2.4 s falling to 1.8 s over six rounds).
type latHist struct {
	counts [histOctaves << histSubBits]uint32
	n      int
	sum    time.Duration
}

const (
	histSubBits = 6
	histOctaves = 42
)

func histBucket(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return e<<histSubBits + int(v>>uint(e))
}

// histBounds returns the bucket's lowest value and its width.
func histBounds(b int) (low, width float64) {
	if b < 1<<histSubBits {
		return float64(b), 1
	}
	e := b>>histSubBits - 1
	m := b&(1<<histSubBits-1) | 1<<histSubBits
	return math.Ldexp(float64(m), e), math.Ldexp(1, e)
}

func (h *latHist) add(d time.Duration) {
	b := histBucket(uint64(max(d, 0)))
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
	h.sum += d
}

func (h *latHist) merge(o *latHist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the nearest-rank q-quantile, placed inside its bucket
// by linear interpolation.
func (h *latHist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(int(math.Ceil(q*float64(h.n))), 1)
	seen := 0
	for b, c := range h.counts {
		if seen+int(c) >= rank {
			low, width := histBounds(b)
			return time.Duration(low + width*(float64(rank-seen)-0.5)/float64(c))
		}
		seen += int(c)
	}
	return 0
}

// p50us is the median in µs.
func (h *latHist) p50us() float64 { return micros(h.quantile(0.5)) }
