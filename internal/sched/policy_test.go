package sched

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/stats"
)

func pj(id int, arrival, estimate int64, width int) *job.Job {
	return &job.Job{ID: id, Arrival: arrival, Runtime: estimate, Estimate: estimate, Width: width}
}

func TestFCFSOrder(t *testing.T) {
	a, b := pj(1, 10, 100, 1), pj(2, 20, 1, 1)
	if !(FCFS{}).Less(a, b, 1000) {
		t.Fatal("earlier arrival should come first")
	}
	if (FCFS{}).Less(b, a, 1000) {
		t.Fatal("later arrival should not come first")
	}
}

func TestFCFSTieBreaksByID(t *testing.T) {
	a, b := pj(1, 10, 100, 1), pj(2, 10, 1, 1)
	if !(FCFS{}).Less(a, b, 0) || (FCFS{}).Less(b, a, 0) {
		t.Fatal("equal arrivals should order by ID")
	}
}

func TestSJFOrder(t *testing.T) {
	short, long := pj(5, 50, 60, 1), pj(1, 0, 7200, 1)
	if !(SJF{}).Less(short, long, 100) {
		t.Fatal("shorter estimate should come first despite later arrival")
	}
	// Equal estimates fall back to FCFS.
	a, b := pj(1, 10, 60, 1), pj(2, 5, 60, 1)
	if !(SJF{}).Less(b, a, 100) {
		t.Fatal("equal estimates should order by arrival")
	}
}

func TestLJFOrder(t *testing.T) {
	short, long := pj(5, 50, 60, 1), pj(1, 0, 7200, 1)
	if !(LJF{}).Less(long, short, 100) {
		t.Fatal("longer estimate should come first under LJF")
	}
}

func TestXFactorValue(t *testing.T) {
	j := pj(1, 100, 50, 1)
	cases := []struct {
		now  int64
		want float64
	}{
		{100, 1}, // no wait
		{150, 2}, // wait 50, est 50
		{50, 1},  // now before arrival clamps wait to 0
		{600, (500 + 50.0) / 50.0},
	}
	for _, tc := range cases {
		if got := XFactor(j, tc.now); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("XFactor(now=%d) = %v, want %v", tc.now, got, tc.want)
		}
	}
	z := &job.Job{ID: 2, Arrival: 0, Estimate: 0, Width: 1}
	if got := XFactor(z, 10); got != 11 {
		t.Errorf("zero-estimate xfactor = %v, want 11 (clamped to 1s)", got)
	}
}

func TestXFPrefersGrownShortJob(t *testing.T) {
	// A short job that has waited has a much larger xfactor than a long
	// job that has waited equally.
	short := pj(1, 0, 60, 1)  // xf at 600: 11
	long := pj(2, 0, 3600, 1) // xf at 600: 1.166
	if !(XF{}).Less(short, long, 600) {
		t.Fatal("short waited job should outrank long one under XF")
	}
	// At arrival both have xf 1: falls to FCFS tiebreak.
	a, b := pj(1, 0, 60, 1), pj(2, 0, 120, 1)
	if !(XF{}).Less(a, b, 0) {
		t.Fatal("equal xfactors should order by arrival/ID")
	}
}

func TestWFPWeightsWidth(t *testing.T) {
	narrow := pj(1, 0, 100, 1)
	wide := pj(2, 0, 100, 32)
	if !(WFP{}).Less(wide, narrow, 100) {
		t.Fatal("wider job should outrank narrow one under WFP at equal xf")
	}
}

func TestPoliciesRegistry(t *testing.T) {
	ps := Policies()
	if len(ps) != 5 {
		t.Fatalf("Policies() returned %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name()] = true
	}
	for _, want := range []string{"FCFS", "SJF", "XF", "LJF", "WFP"} {
		if !names[want] {
			t.Errorf("missing policy %s", want)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	p, err := PolicyByName("SJF")
	if err != nil || p.Name() != "SJF" {
		t.Fatalf("PolicyByName(SJF) = %v, %v", p, err)
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy should error")
	}
}

// TestPoliciesTotalOrder verifies every policy induces a strict weak
// ordering usable by sort: irreflexive, asymmetric, and deterministic.
func TestPoliciesTotalOrder(t *testing.T) {
	r := stats.NewRNG(51)
	jobs := make([]*job.Job, 60)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID:       i + 1,
			Arrival:  int64(r.Intn(20)), // many ties
			Runtime:  int64(r.Intn(5)*60 + 60),
			Estimate: int64(r.Intn(5)*60 + 60),
			Width:    r.Intn(4) + 1,
		}
	}
	for _, pol := range Policies() {
		now := int64(500)
		for _, a := range jobs {
			if pol.Less(a, a, now) {
				t.Fatalf("%s: Less(a,a) true", pol.Name())
			}
			for _, b := range jobs {
				if a != b && pol.Less(a, b, now) && pol.Less(b, a, now) {
					t.Fatalf("%s: Less not asymmetric for %v / %v", pol.Name(), a, b)
				}
				if a != b && !pol.Less(a, b, now) && !pol.Less(b, a, now) {
					t.Fatalf("%s: jobs %d and %d incomparable (order not total)", pol.Name(), a.ID, b.ID)
				}
			}
		}
		// Sorting twice from shuffled inputs gives the same order.
		s1 := append([]*job.Job(nil), jobs...)
		s2 := append([]*job.Job(nil), jobs...)
		for i, k := range r.Perm(len(s2)) {
			s2[i], s2[k] = s2[k], s2[i]
		}
		sortQueue(s1, pol, now)
		sortQueue(s2, pol, now)
		for i := range s1 {
			if s1[i].ID != s2[i].ID {
				t.Fatalf("%s: order depends on input permutation at %d", pol.Name(), i)
			}
		}
	}
}

func TestSortQueueFCFSIsArrivalSorted(t *testing.T) {
	r := stats.NewRNG(53)
	jobs := make([]*job.Job, 40)
	for i := range jobs {
		jobs[i] = &job.Job{ID: i + 1, Arrival: int64(r.Intn(1000)), Estimate: 60, Width: 1}
	}
	sortQueue(jobs, FCFS{}, 0)
	if !sort.SliceIsSorted(jobs, func(i, k int) bool {
		if jobs[i].Arrival != jobs[k].Arrival {
			return jobs[i].Arrival < jobs[k].Arrival
		}
		return jobs[i].ID < jobs[k].ID
	}) {
		t.Fatal("FCFS sort not by arrival")
	}
}

// FuzzSortQueue checks sortQueue against the library's stable sort over
// policyCmp: the keyed insertion repair and its budget fallback under XF and
// WFP, and the comparator repair under the static policies and under
// wrapped aging ones, which hide their key. Input: a mode byte, two bytes
// of clock, then three bytes a job (arrival, estimate, width). Mode 0 keeps
// the decoded order; 1 starts from the policy's order at an earlier instant,
// the queue an aging policy's pass repairs; 2 starts from the reversed
// order, which forces the fallback.
func FuzzSortQueue(f *testing.F) {
	reversed := []byte{2, 0x10, 0x27}
	for i := range 200 {
		reversed = append(reversed, byte(i), byte(i*7+1), byte(i))
	}
	f.Add(reversed)
	f.Add(append([]byte{1, 0x40, 0x01}, bytes.Repeat([]byte{5, 9, 3}, 50)...)) // equal keys: the tie-break alone orders
	for _, n := range []int{1, 64, 65} {
		seed := []byte{1, 0xff, 0x01}
		for i := range n {
			seed = append(seed, byte(i*37), byte(i*11+3), byte(i))
		}
		f.Add(seed)
	}
	pols := append(Policies(), wrappedPolicy{XF{}}, wrappedPolicy{WFP{}})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		mode, now := data[0]%3, 4000+int64(data[1])<<8+int64(data[2])
		var jobs []*job.Job
		for b := data[3:]; len(b) >= 3 && len(jobs) < 300; b = b[3:] {
			jobs = append(jobs, &job.Job{ID: len(jobs) + 1, Arrival: int64(b[0]) * 4, Estimate: int64(b[1]) * 3, Width: int(b[2])%32 + 1})
		}
		for _, pol := range pols {
			stable := func(q []*job.Job, at int64) {
				slices.SortStableFunc(q, func(a, b *job.Job) int { return policyCmp(pol, a, b, at) })
			}
			q := slices.Clone(jobs)
			switch mode {
			case 1:
				stable(q, now/2)
			case 2:
				stable(q, now)
				slices.Reverse(q)
			}
			want := slices.Clone(q)
			stable(want, now)
			sortQueue(q, pol, now)
			if !slices.Equal(q, want) {
				t.Fatalf("%s, mode %d, %d jobs at %d: sortQueue gave %v, want %v", pol.Name(), mode, len(q), now, ids(q), ids(want))
			}
		}
	})
}

// wrappedPolicy forwards Name and Less and nothing else, as a third-party
// decorator would.
type wrappedPolicy struct{ Policy }

// TestPolicyTimeInvariant: a policy says of itself that its order does not
// move with the clock; one that does not say so — an aging policy, or any
// wrapper that drops the method — is taken as time-varying, the safe
// answer (a needless re-sort, never a stale order).
func TestPolicyTimeInvariant(t *testing.T) {
	for _, pol := range Policies() {
		want := pol.Name() == "FCFS" || pol.Name() == "SJF" || pol.Name() == "LJF"
		if got := PolicyTimeInvariant(pol); got != want {
			t.Errorf("PolicyTimeInvariant(%s) = %v, want %v", pol.Name(), got, want)
		}
		if PolicyTimeInvariant(wrappedPolicy{pol}) {
			t.Errorf("wrapped %s reported time-invariant without saying so", pol.Name())
		}
	}
	if newPassMemo(wrappedPolicy{FCFS{}}).timeInv {
		t.Error("a scheduler under a wrapped policy must not skip passes on time alone")
	}
}
