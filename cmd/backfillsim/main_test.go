package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/workload"
)

// wallTime matches the report's one run-dependent line.
var wallTime = regexp.MustCompile(`(?m)^wall time .*\n`)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return wallTime.ReplaceAllString(out.String(), "")
}

func fixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunSynthetic(t *testing.T) {
	got := runOut(t, "-model", "SDSC", "-jobs", "20", "-sched", "easy", "-policy", "SJF")
	for _, want := range []string{"EASY(SJF)", "20 on 128 processors", "avg slowdown", "utilization", "schedule fingerprint"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunFixtures pins the report, the text chart and the heatmaps byte for
// byte against testdata captured from the standalone visualizer this
// command absorbed: the report is unchanged by the output flags, and each
// flag appends its section after it.
func TestRunFixtures(t *testing.T) {
	args := []string{"-model", "SDSC", "-jobs", "30", "-sched", "easy", "-policy", "SJF"}
	report := fixture(t, "report.txt")
	cases := []struct {
		flags []string
		want  string
	}{
		{nil, report},
		{[]string{"-chart", "100"}, report + "\n" + fixture(t, "chart.txt")},
		{[]string{"-heatmap"}, report + "\n" + fixture(t, "heatmap.txt")},
	}
	for _, c := range cases {
		if got := runOut(t, append(args, c.flags...)...); got != c.want {
			t.Errorf("%v: output differs from the fixture:\n--- got ---\n%s--- want ---\n%s", c.flags, got, c.want)
		}
	}
}

func TestRunSVGOutput(t *testing.T) {
	svgPath := filepath.Join(t.TempDir(), "gantt.svg")
	got := runOut(t, "-model", "CTC", "-jobs", "10", "-svg", svgPath)
	data, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatalf("SVG file not written: %v", err)
	}
	if string(data) != fixture(t, "gantt.svg") {
		t.Errorf("SVG differs from testdata/gantt.svg:\n%.300s", data)
	}
	if !strings.HasSuffix(got, "wrote "+svgPath+"\n") {
		t.Errorf("output missing write confirmation:\n%s", got)
	}
}

func TestRunHeatmap(t *testing.T) {
	got := runOut(t, "-model", "SDSC", "-jobs", "15", "-heatmap")
	for _, want := range []string{"utilization heatmap", "arrival heatmap"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSWF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.swf")
	trace := `; MaxProcs: 8
1 0 0 100 4 -1 -1 4 100 -1 1 1 -1 -1 -1 -1 -1 -1
2 10 0 50 8 -1 -1 8 60 -1 1 1 -1 -1 -1 -1 -1 -1
`
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	got := runOut(t, "-swf", path, "-sched", "conservative")
	for _, want := range []string{"Conservative(FCFS)", "2 on 8 processors"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// A smaller machine drops the jobs wider than it.
	if got := runOut(t, "-swf", path, "-procs", "4"); !strings.Contains(got, "1 on 4 processors") {
		t.Errorf("-procs 4 did not filter the 8-wide job:\n%s", got)
	}
}

// TestFingerprintMatchesCoreRun: the command's schedule is core.Run's for
// the same workload and configuration.
func TestFingerprintMatchesCoreRun(t *testing.T) {
	got := runOut(t, "-model", "SDSC", "-jobs", "300", "-est", "R=2", "-sched", "conservative", "-policy", "XF")

	m, err := workload.ByName("SDSC", 0.85)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.Generate(300, 42)
	if err != nil {
		t.Fatal(err)
	}
	em, err := workload.EstimateModelByName("R=2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(core.Config{Procs: m.Procs, Scheduler: "conservative", Policy: "XF", Audit: true},
		workload.ApplyEstimates(jobs, em, 43))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("schedule fingerprint: %016x\n", res.Fingerprint); !strings.HasSuffix(got, want) {
		t.Errorf("output does not end with %q:\n%s", want, got)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-model", "bogus"},
		{"-est", "bogus"},
		{"-sched", "bogus"},
		{"-policy", "bogus"},
		{"-swf", "/nonexistent.swf"},
		{"-jobs", "x"},
		{"-chart", "x"},
		{"-jobs", "10", "-svg", filepath.Join("/nonexistent", "gantt.svg")},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestExitStatus holds main's ending to flag.ExitOnError's: -h prints the
// usage once and exits 0, a bad flag prints its error and the usage once
// and exits 2, and only an error of the run itself reaches stderr, as one
// line, with status 1. An empty stdout case means no output at all.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args           []string
		status         int
		stdout, stderr string
	}{
		{[]string{"-h"}, 0, "Usage of backfillsim:", ""},
		{[]string{"-bogus"}, 2, "Usage of backfillsim:", ""},
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus", ""},
		{[]string{"-jobs", "50", "-model", "bogus"}, 1, "", "backfillsim: workload: unknown trace model \"bogus\" (want CTC or SDSC)\n"},
	} {
		var out, stderr bytes.Buffer
		status := cli.Status("backfillsim", run(c.args, &out), &stderr)
		if status != c.status || strings.Count(out.String(), c.stdout) != 1 || stderr.String() != c.stderr {
			t.Errorf("%v: status %d, want %d; stdout has %q %d times, want once; stderr %q, want %q",
				c.args, status, c.status, c.stdout, strings.Count(out.String(), c.stdout), stderr.String(), c.stderr)
		}
	}
}
