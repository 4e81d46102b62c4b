package instr

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestUpdatesAllocateNothing pins the instruments' cost per event: a
// counter add and a histogram observe allocate nothing.
func TestUpdatesAllocateNothing(t *testing.T) {
	var s Set
	c, h := s.Counter("c"), s.Histogram("h")
	d := 3 * time.Millisecond
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f objects", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(d) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f objects", n)
	}
}

// TestHistogramSize holds a histogram to the size its layout promises:
// the buckets told apart up to 2^40 ns, 4 bytes each, beside its sum and
// maximum.
func TestHistogramSize(t *testing.T) {
	if got := unsafe.Sizeof(Histogram{}); got > 1300 {
		t.Fatalf("a histogram is %d bytes, want at most 1300", got)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	var s Set
	s.Counter("x")
	s.Histogram("y")
	for _, register := range []func(){
		func() { s.Counter("x") },
		func() { s.Histogram("x") },
		func() { s.Counter("y") },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "registered twice") {
					t.Errorf("re-registering a name: recovered %v, want a panic naming it", r)
				}
			}()
			register()
		}()
	}
}

// TestBucketsAreNarrow checks every bucket boundary: a value lands in the
// bucket whose bounds hold it, buckets tile the range without gaps, and
// none is wider than 12.5 % of its lowest value.
func TestBucketsAreNarrow(t *testing.T) {
	next := 0.0
	for b := 0; b < numBuckets; b++ {
		low, width := bounds(b)
		if low != next {
			t.Fatalf("bucket %d starts at %g, the previous one ends at %g", b, low, next)
		}
		if low >= 8 && width/low > 0.125 {
			t.Fatalf("bucket %d is %g wide at %g", b, width, low)
		}
		for _, v := range []float64{low, low + width - 1} {
			if got := bucket(uint64(v)); got != b {
				t.Fatalf("value %g in bucket %d, want %d", v, got, b)
			}
		}
		next = low + width
	}
	if got := bucket(1 << 62); got != numBuckets-1 {
		t.Fatalf("a value past the range lands in bucket %d", got)
	}
}

func TestSetRendersInOrder(t *testing.T) {
	var s Set
	b, a := s.Counter("b"), s.Counter("a")
	h := s.Histogram("t")
	s.Histogram("empty")
	b.Add(3)
	a.Set(-2)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	h.Observe(-time.Second)
	got := s.AppendJSON(nil)
	if !json.Valid(got) || !strings.HasPrefix(string(got), `{"b":3,"a":-2,"t":{"count":101,"sum_us":5050,"max_us":100,"p50_us":`) ||
		!strings.HasSuffix(string(got), `,"empty":{"count":0,"sum_us":0,"max_us":0}}`) {
		t.Fatalf("rendered %s", got)
	}
	// A quantile is within its bucket's 12.5 % of the exact one.
	exact := map[string]float64{"t.p50_us": 50, "t.p99_us": 99}
	if err := Walk(got, func(k, v string) {
		if want, ok := exact[k]; ok {
			if q, _ := strconv.ParseFloat(v, 64); q < want*0.875 || q > want*1.125 {
				t.Errorf("%s = %s, exact %g", k, v, want)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRenderWhileUpdating renders a set while other goroutines update it;
// run under -race.
func TestRenderWhileUpdating(t *testing.T) {
	var s Set
	c, h := s.Counter("c"), s.Histogram("h")
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Add(1)
				h.Observe(time.Duration(i))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if b := s.AppendJSON(nil); !json.Valid(b) {
			t.Fatalf("invalid body %s", b)
		}
	}
	wg.Wait()
	if c.Load() != 4000 {
		t.Fatalf("counter %d after 4000 adds", c.Load())
	}
}

func TestWalk(t *testing.T) {
	body := `{"z":1,"a":{"s":"x y","t":true,"n":null,"f":[{"id":"f1"},{"id":"f2"}],"e":{}},"h":2.5}`
	var got []string
	if err := Walk([]byte(body), func(k, v string) { got = append(got, k+" "+v) }); err != nil {
		t.Fatal(err)
	}
	want := []string{"z 1", "a.s x y", "a.t true", "a.n null", "a.f.0.id f1", "a.f.1.id f2", "h 2.5"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("walked %q, want %q", got, want)
	}
	if err := Walk([]byte(`{"a":`), func(string, string) {}); err == nil {
		t.Fatal("a truncated body walked without an error")
	}
}
