package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/exp"
)

// TestExitStatus holds main's ending to flag.ExitOnError's: -h prints the
// usage once and exits 0, a bad flag (the removed -cache-dir and -journal
// among them) prints its error and the usage once and exits 2, and an
// error of the run itself reaches stderr as one line, with status 1.
// Nothing reaches stdout, which carries only the tables.
func TestExitStatus(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage of experiments:"},
		{[]string{"-bogus"}, 2, "Usage of experiments:"},
		{[]string{"-cache-dir", "d"}, 2, "flag provided but not defined: -cache-dir"},
		{[]string{"-journal", "j.jsonl"}, 2, "flag provided but not defined: -journal"},
		{[]string{"-run", "Bogus"}, 1, "experiments: exp: unknown experiment \"Bogus\"\n"},
		{[]string{"-format", "bogus"}, 1, "experiments: unknown format \"bogus\"\n"},
		{[]string{"-high-load", "Inf", "-run", "Table2"}, 1, "experiments: exp: sweep: load +Inf is not a positive finite number\n"},
	} {
		var out, stderr bytes.Buffer
		status := cli.Status("experiments", run(c.args, &out, &stderr), &stderr)
		if status != c.status || strings.Count(stderr.String(), c.stderr) != 1 || out.Len() != 0 {
			t.Errorf("%v: status %d, want %d; stderr has %q %d times, want once; stdout %q, want nothing",
				c.args, status, c.status, c.stderr, strings.Count(stderr.String(), c.stderr), out.String())
		}
	}
}

// TestWorkersGiveIdenticalTables: the tables on stdout are the same bytes
// at one worker and at four, and the progress on stderr ends with the
// summary over the five experiments and their 18 distinct cells.
func TestWorkersGiveIdenticalTables(t *testing.T) {
	args := []string{"-run", "Table1,Figure1,Figure2,Table4,Selective", "-jobs", "300"}
	var tables [2]string
	for i, j := range []string{"1", "4"} {
		var out, stderr bytes.Buffer
		if err := run(append([]string{"-j", j}, args...), &out, &stderr); err != nil {
			t.Fatal(err)
		}
		tables[i] = out.String()
		if lines := strings.Split(strings.TrimSpace(stderr.String()), "\n"); !strings.HasPrefix(lines[len(lines)-1], "18 cells, 5 experiments: wall ") {
			t.Errorf("-j %s: last stderr line %q, want the 18-cell summary", j, lines[len(lines)-1])
		}
	}
	if tables[0] != tables[1] {
		t.Fatalf("-j 1 and -j 4 differ:\n--- -j 1 ---\n%s--- -j 4 ---\n%s", tables[0], tables[1])
	}
	if !strings.Contains(tables[0], "Figure1") || !strings.Contains(tables[0], "Selective") {
		t.Fatalf("tables missing an experiment:\n%s", tables[0])
	}
}

func TestWriteFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	tables := []*exp.Table{
		{ID: "A", Title: "first", Headers: []string{"x"}, Rows: [][]string{{"1"}}},
		{ID: "A", Title: "second panel", Headers: []string{"x"}, Rows: [][]string{{"2"}}},
		{ID: "B", Title: "other", Headers: []string{"y"}, Rows: [][]string{{"3"}}},
	}
	if err := writeFiles(dir, tables, "text"); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(dir, "A.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(a), "first") || !strings.Contains(string(a), "second panel") {
		t.Fatalf("A.txt missing panels: %q", a)
	}
	if _, err := os.Stat(filepath.Join(dir, "B.txt")); err != nil {
		t.Fatal("B.txt missing")
	}

	if err := writeFiles(dir, tables, "csv"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "B.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "y\n") {
		t.Fatalf("B.csv wrong: %q", b)
	}
}

func TestWriteReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	tables := []*exp.Table{
		{ID: "A", Title: "first", Headers: []string{"x"}, Rows: [][]string{{"1"}}},
		{ID: "B", Title: "second", Headers: []string{"y"}, Rows: [][]string{{"2"}}},
	}
	p := exp.DefaultParams()
	if err := writeReport(path, p, tables); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, frag := range []string{
		"# Backfilling characterization",
		"### A: first", "### B: second",
		"| x |", "| 2 |",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
}
