package exp

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

// smallRuns are the full registry at testParams on one worker and on four,
// each with its progress lines, shared by the tests below.
var smallRuns struct {
	once     sync.Once
	runs     [2]*labRun
	progress [2]bytes.Buffer
}

func smallRun(t *testing.T, i int) (*labRun, string) {
	t.Helper()
	smallRuns.once.Do(func() {
		for i, workers := range []int{1, 4} {
			smallRuns.runs[i] = runLab(t, testParams(), All(), workers, &smallRuns.progress[i])
		}
	})
	if smallRuns.runs[i] == nil {
		t.Fatal("the shared registry run failed")
	}
	return smallRuns.runs[i], smallRuns.progress[i].String()
}

// TestRunExperimentsParallelMatchesSerial: running the full registry on 4
// workers must produce exactly the tables the serial path produces, in the
// same order.
func TestRunExperimentsParallelMatchesSerial(t *testing.T) {
	serial, _ := smallRun(t, 0)
	parallel, _ := smallRun(t, 1)
	if len(serial.tables) != len(parallel.tables) {
		t.Fatalf("table count: serial %d vs parallel %d", len(serial.tables), len(parallel.tables))
	}
	for i := range serial.tables {
		if !reflect.DeepEqual(serial.tables[i], parallel.tables[i]) {
			t.Errorf("table %d (%s) differs between serial and parallel", i, serial.tables[i].ID)
		}
	}
}

// union lists the distinct cells exps declare at p.
func union(exps []Experiment, p Params) []sweep.Key {
	var ks []sweep.Key
	for _, e := range exps {
		if e.Cells == nil {
			continue
		}
		for _, k := range e.Cells(p) {
			if !slices.Contains(ks, k) {
				ks = append(ks, k)
			}
		}
	}
	return ks
}

// TestRunExperimentsRunsEachCellOnce: the registry's run simulates each
// distinct declared cell exactly once, at one worker and at four: one
// progress line per cell and a closing summary that counts them and the
// experiments. A run of the experiments that read no cell closes with a
// summary that counts the experiments alone.
func TestRunExperimentsRunsEachCellOnce(t *testing.T) {
	cells := union(All(), testParams())
	done := regexp.MustCompile(`(?m)^\[\d+/(\d+)\] done sweep\|(\S+) `)
	for i := range 2 {
		_, progress := smallRun(t, i)
		runs := map[string]int{}
		for _, m := range done.FindAllStringSubmatch(progress, -1) {
			runs[m[2]]++
		}
		for _, k := range cells {
			if n := runs[k.String()]; n != 1 {
				t.Errorf("run %d: cell %s ran %d times", i, k, n)
			}
			delete(runs, k.String())
		}
		for k, n := range runs {
			t.Errorf("run %d: undeclared cell %s ran %d times", i, k, n)
		}
		// runLab adds one experiment of its own to the registry.
		summary := fmt.Sprintf("%d cells, %d experiments: wall ", len(cells), len(All())+1)
		if last := lastLine(progress); !strings.HasPrefix(last, summary) {
			t.Errorf("run %d: last progress line %q, want %q…", i, last, summary)
		}
	}

	var cellFree []Experiment
	for _, e := range All() {
		if e.Cells == nil {
			cellFree = append(cellFree, e)
		}
	}
	var progress bytes.Buffer
	runLab(t, testParams(), cellFree, 2, &progress)
	summary := fmt.Sprintf("%d experiments: wall ", len(cellFree)+1)
	if last := lastLine(progress.String()); !strings.HasPrefix(last, summary) || strings.Contains(progress.String(), "cells") {
		t.Errorf("cell-free run: progress %q, want only the summary %q…", progress.String(), summary)
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// TestRenderReadsDeclaredCells: every experiment's render reads exactly
// the cells it declares, with no undeclared read and no unread cell.
func TestRenderReadsDeclaredCells(t *testing.T) {
	r, _ := smallRun(t, 0)
	for _, e := range All() {
		var declared []sweep.Key
		if e.Cells != nil {
			declared = e.Cells(r.lab.P)
		}
		unread := map[sweep.Key]bool{}
		for _, k := range declared {
			unread[k] = true
		}
		get := func(k sweep.Key) *core.Result {
			if !slices.Contains(declared, k) {
				t.Fatalf("%s reads cell %s, which it does not declare", e.ID, k)
			}
			delete(unread, k)
			return r.cell(k)
		}
		if _, err := e.Render(r.lab, Results{Keys: declared, Get: get}); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for k := range unread {
			t.Errorf("%s declares cell %s and never reads it", e.ID, k)
		}
	}
}
