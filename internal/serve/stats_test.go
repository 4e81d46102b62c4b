package serve

import (
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/instr"
)

// statsBody is a GET /v1/debug/stats body, decoded and flattened.
type statsBody struct {
	Stats
	flat map[string]string // instr.Walk's keys and values
}

// debugStats reads GET /v1/debug/stats from h.
func debugStats(t *testing.T, h http.Handler) statsBody {
	t.Helper()
	var b statsBody
	rec := doJSON(t, h, "GET", "/v1/debug/stats", nil, &b.Stats)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/debug/stats: %d %s", rec.Code, rec.Body.String())
	}
	b.flat = map[string]string{}
	if err := instr.Walk(rec.Body.Bytes(), func(k, v string) { b.flat[k] = v }); err != nil {
		t.Fatal(err)
	}
	return b
}

// num returns the numeric field at key, failing the test when there is none.
func (b statsBody) num(t *testing.T, key string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(b.flat[key], 64)
	if err != nil {
		t.Fatalf("stats key %s = %q: %v", key, b.flat[key], err)
	}
	return v
}

// TestInstrumentsFitTheirBudget bounds what a fresh server's instruments
// hold at 8 KiB. The reads workload's retained heap, the daemon's included,
// is 0.40 MB with a 5 % bound (about 20 KB), and every server carries one
// set of instruments.
func TestInstrumentsFitTheirBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	var in instruments
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in.register()
	runtime.ReadMemStats(&after)
	// Everything registration allocated is an upper bound on what it holds.
	inline, allocated := unsafe.Sizeof(in), after.TotalAlloc-before.TotalAlloc
	if total := uint64(inline) + allocated; total > 8<<10 {
		t.Fatalf("a server's instruments hold %d bytes (%d in Server, %d allocated), want at most 8 KiB", total, inline, allocated)
	}
	t.Logf("a server's instruments: %d bytes in Server, %d allocated", inline, allocated)
}

// TestOldDebugRoutesAreGone pins the single debug surface: the four
// endpoints GET /v1/debug/stats replaced answer 404.
func TestOldDebugRoutesAreGone(t *testing.T) {
	s, stop := frozenServer(t, Options{Procs: 4})
	defer stop()
	h := s.Handler()
	for _, path := range []string{"/v1/debug/durability", "/v1/debug/replication", "/v1/debug/forecast", "/v1/debug/passes"} {
		if rec := doJSON(t, h, "GET", path, nil, nil); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, rec.Code)
		}
	}
}
