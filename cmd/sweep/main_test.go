package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a,b,c", []string{"a", "b", "c"}},
		{" a , b ", []string{"a", "b"}},
		{"", nil},
		{",,", nil},
		{"single", []string{"single"}},
	}
	for _, tc := range cases {
		got := splitList(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("splitList(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("splitList(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

// TestExitStatus holds main's ending to flag.ExitOnError's: -h prints the
// usage once and exits 0, a bad flag (the removed -cache-dir and -journal
// among them) prints its error and the usage once and exits 2, and an
// error of the run itself reaches stderr as one line, with status 1.
// Nothing reaches stdout, which carries only the CSV.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of sweep:"},
		{[]string{"-bogus"}, 2, "Usage of sweep:"},
		{[]string{"-cache-dir", "d"}, 2, "flag provided but not defined: -cache-dir"},
		{[]string{"-journal", "j.jsonl"}, 2, "flag provided but not defined: -journal"},
		{[]string{"-jobs", "50", "-models", "bogus"}, 1, "sweep: workload: unknown trace model \"bogus\" (want CTC or SDSC)\n"},
		{[]string{"-loads=-0.5,0.8", "-jobs", "100", "-q"}, 1, "sweep: load -0.5 is not a positive finite number\n"},
	} {
		var out, stderr bytes.Buffer
		status := cli.Status("sweep", run(c.args, &out, &stderr), &stderr)
		if status != c.status || strings.Count(stderr.String(), c.stderr) != 1 || out.Len() != 0 {
			t.Errorf("%v: status %d, want %d; stderr has %q %d times, want once; stdout %q, want nothing",
				c.args, status, c.status, c.stderr, strings.Count(stderr.String(), c.stderr), out.String())
		}
		// A run's error is the whole of stderr: one line, its prefix once.
		if c.status == 1 && stderr.String() != c.stderr {
			t.Errorf("%v: stderr %q, want exactly %q", c.args, stderr.String(), c.stderr)
		}
	}
}

// TestRefusesBadLoads: a target load that is not a positive finite number
// fails the run before any cell is simulated, instead of running the
// workload as generated under the bad value's label.
func TestRefusesBadLoads(t *testing.T) {
	for _, loads := range []string{"-0.5", "-0.5,0.8", "0", "NaN", "Inf"} {
		var out, stderr bytes.Buffer
		args := []string{"-loads=" + loads, "-jobs", "100", "-scheds", "easy", "-policies", "FCFS", "-q"}
		status := cli.Status("sweep", run(args, &out, &stderr), &stderr)
		if status != 1 || !strings.Contains(stderr.String(), "not a positive finite number") || out.Len() != 0 {
			t.Errorf("-loads=%s: status %d, stderr %q, stdout %q; want status 1 and the load refused", loads, status, stderr.String(), out.String())
		}
	}
}

// TestWorkersGiveIdenticalCSV: the CSV on stdout is the same bytes at one
// worker and at four, and the progress on stderr ends with the summary.
func TestWorkersGiveIdenticalCSV(t *testing.T) {
	args := []string{"-models", "CTC,SDSC", "-jobs", "150", "-loads", "0.7,0.9", "-ests", "exact,R=2"}
	var csv [2]string
	for i, j := range []string{"1", "4"} {
		var out, stderr bytes.Buffer
		if err := run(append([]string{"-j", j}, args...), &out, &stderr); err != nil {
			t.Fatal(err)
		}
		csv[i] = out.String()
		if lines := strings.Split(strings.TrimSpace(stderr.String()), "\n"); !strings.HasPrefix(lines[len(lines)-1], "48 cells: wall ") {
			t.Errorf("-j %s: last stderr line %q, want the 48-cell summary", j, lines[len(lines)-1])
		}
	}
	if csv[0] != csv[1] {
		t.Fatalf("-j 1 and -j 4 differ:\n--- -j 1 ---\n%s--- -j 4 ---\n%s", csv[0], csv[1])
	}
	if rows := strings.Count(csv[0], "\n"); rows != 49 {
		t.Fatalf("CSV has %d lines, want a header and 48 cells", rows)
	}
}
