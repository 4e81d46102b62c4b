package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// seq returns n values starting at from, one apart.
func seq(from float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = from + float64(i)
	}
	return v
}

// rep returns the values of each (value, count) pair in turn.
func rep(valueCount ...float64) []float64 {
	var v []float64
	for i := 0; i < len(valueCount); i += 2 {
		for k := 0; k < int(valueCount[i+1]); k++ {
			v = append(v, valueCount[i])
		}
	}
	return v
}

// fixture writes a checkout with a one-workload, one-metric BENCHMARK.json
// (bound 10 %) and the two JSONL files a comparison would have left.
func fixture(t *testing.T, better string, parent, change []string) string {
	t.Helper()
	root := t.TempDir()
	spec := fmt.Sprintf(`{"command": ["sh", "benchmark/run.sh"], "run_seconds": 1, "workloads": [{"name": "w"}],
		"end_to_end": [{"name": "m", "unit": "us", "better": %q, "bound": 0.1}]}`, better)
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(resultsDir(root), 0o755); err != nil {
		t.Fatal(err)
	}
	for side, lines := range map[string][]string{"parent": parent, "change": change} {
		body := strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(filepath.Join(resultsDir(root), side+".jsonl"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// lines renders one result line per value of metric m, failed ops on the first.
func lines(values []float64, failed int) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = fmt.Sprintf(`{"workload":"w","seed":1,"pair":%d,"correct":%t,"attempted":1000,"failed":%d,"metrics":{"m":{"value":%g,"unit":"us"}}}`,
			i+1, failed == 0, failed, v)
		failed = 0
	}
	return out
}

func TestVerdicts(t *testing.T) {
	wide := rep(100, 5, 112, 5) // IQR 12 around a median of 106: wider than the 10 % bound
	cases := []struct {
		name           string
		better         string
		parent, change []float64
		failed         int // failed ops on the change side
		verdict, won   string
	}{
		{"gain", "lower", seq(100, 10), seq(80, 10), 0, "gain", "10/10"},
		{"gain, higher is better", "higher", seq(100, 10), seq(120, 10), 0, "gain", "10/10"},
		{"one pair lost of ten is still a gain", "lower", seq(100, 10), append(seq(80, 9), 200), 0, "gain", "9/10"},
		{"two pairs lost are not", "lower", seq(100, 10), append(seq(80, 8), 200, 200), 0, "same", "8/10"},
		{"nine pairs: no gain claimed", "lower", seq(100, 9), seq(80, 9), 0, "same", "9/9"},
		{"won every pair by less than the parent's IQR", "lower", seq(100, 10), seq(99, 10), 0, "same", "10/10"},
		{"ties count for neither side", "lower", seq(100, 10), seq(100, 10), 0, "same", "0/10"},
		{"same", "lower", seq(100, 10), seq(105, 10), 0, "same", "0/10"},
		{"worse by median", "lower", seq(100, 10), seq(120, 10), 0, "worse", "0/10"},
		{"worse by median, higher is better", "higher", seq(100, 10), seq(80, 10), 0, "worse", "0/10"},
		{"unresolved: parent IQR wider than the bound", "lower", wide, rep(112, 5, 100, 5), 0, "unresolved", "5/10"},
		{"worse: every run behind every parent run inside a wide spread", "lower", wide, rep(113, 10), 0, "worse", "0/10"},
		{"resolved: every run ahead of every parent run inside a wide spread", "lower", wide, rep(99, 10), 0, "same", "10/10"},
		{"worse by failed-op share", "lower", seq(100, 10), seq(100, 10), 3, "worse", "0/10"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := fixture(t, tc.better, lines(tc.parent, 0), lines(tc.change, tc.failed))
			var out, errb bytes.Buffer
			err := run(context.Background(), root, nil, &out, &errb)
			if (err != nil) != (tc.verdict == "worse") {
				t.Fatalf("run error = %v with verdict %q wanted\n%s", err, tc.verdict, out.String())
			}
			rows := strings.Split(strings.TrimSpace(out.String()), "\n")
			row := strings.Fields(rows[len(rows)-1])
			if len(rows) < 2 || row[0] != "w" || row[1] != "m" {
				t.Fatalf("no row for w/m:\n%s", out.String())
			}
			if got := row[len(row)-1]; got != tc.verdict {
				t.Errorf("verdict = %q, want %q\n%s", got, tc.verdict, out.String())
			}
			if got := row[len(row)-2]; got != tc.won {
				t.Errorf("won = %q, want %q\n%s", got, tc.won, out.String())
			}
			if tc.failed > 0 && !strings.Contains(out.String(), "3 of 10000 ops failed, 0 of 10000 at the parent") {
				t.Errorf("failed share not reported:\n%s", out.String())
			}
		})
	}
}

// TestBadResultsAreErrors: what a comparison cannot read is never a zero.
func TestBadResultsAreErrors(t *testing.T) {
	good := lines(seq(100, 3), 0)
	other := strings.ReplaceAll(good[2], `"m":`, `"other":`)
	cases := []struct {
		name           string
		parent, change []string
		want           string
	}{
		{"malformed last line", good, append(good[:2:2], `{"workload":"w","attempted":1000,"metr`), "change runs: line 3"},
		{"a report line instead of a result", good, append(good[:2:2], `throughput 1200 /s`), "change runs: line 3"},
		{"a result without metrics", append(good[:2:2], `{"workload":"w","attempted":1000,"failed":0}`), good, "not a result line"},
		{"metric missing from one side", good, append(good[:2:2], other), "w pair 3: m is missing from one side"},
		{"unpaired runs", good, good[:2], "3 parent runs and 2 change runs"},
		{"a workload never measured", nil, nil, "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := fixture(t, "lower", tc.parent, tc.change)
			var out, errb bytes.Buffer
			err := run(context.Background(), root, nil, &out, &errb)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one containing %q\n%s", err, tc.want, out.String())
			}
		})
	}
	if err := run(context.Background(), t.TempDir(), nil, &bytes.Buffer{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "BENCHMARK.json") {
		t.Errorf("a checkout without BENCHMARK.json: error = %v", err)
	}
}

// TestRepoSpecDecodes reads the repository's own BENCHMARK.json the way run
// does: every workload named, every end-to-end metric with a direction and a
// bound, so that a row is never judged against a zero bound by accident.
func TestRepoSpecDecodes(t *testing.T) {
	root := t.TempDir()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), root, nil, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "parent runs") {
		t.Fatalf("error = %v, want the missing parent runs", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Command) != 2 || s.RunSeconds <= 0 || len(s.Workloads) != 4 || len(s.EndToEnd) != 8 {
		t.Fatalf("spec = %+v", s)
	}
	for _, w := range s.Workloads {
		if w.Name == "" {
			t.Errorf("unnamed workload in %+v", s.Workloads)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Name == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound >= 1 {
			t.Errorf("metric %+v", m)
		}
	}
}

// fakeBenchmark stands in for benchmark/run.sh: it logs which tree ran which
// workload and seed, and prints a report line and a result line whose metric
// is 100 at the parent commit and 50 after it.
const fakeBenchmark = `#!/bin/sh
echo "$(basename "$PWD") $2 $4 $6 $8" >> "$LOG"
echo "report line"
echo '{"correct":true,"attempted":10,"failed":0,"metrics":{"m":{"value":VALUE,"unit":"us"}}}'
`

// TestRunEndToEnd measures a scratch repository against its own first commit
// with a benchmark that takes no time.
func TestRunEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	root := t.TempDir()
	logPath := filepath.Join(t.TempDir(), "log")
	t.Setenv("LOG", logPath)
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", root, "-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	write := func(rel, body string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, rel), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("BENCHMARK.json", `{"command": ["sh", "benchmark/run.sh"], "run_seconds": 7, "workloads": [{"name": "a"}, {"name": "b"}],
		"end_to_end": [{"name": "m", "unit": "us", "better": "lower", "bound": 0.1}]}`)
	write("README", "no benchmark yet\n")
	git("add", "-A")
	git("commit", "-q", "-m", "no benchmark")
	write("benchmark/run.sh", strings.Replace(fakeBenchmark, "VALUE", "100", 1))
	git("add", "-A")
	git("commit", "-q", "-m", "parent")
	write("benchmark/run.sh", strings.Replace(fakeBenchmark, "VALUE", "50", 1)) // the change is not committed

	var out, errb bytes.Buffer
	if err := run(context.Background(), root, []string{"-ref", "HEAD", "-pairs", "10"}, &out, &errb); err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	if got := strings.Count(out.String(), "gain"); got != 2 {
		t.Errorf("want a gain on both workloads:\n%s", out.String())
	}
	for _, side := range sides {
		b, err := os.ReadFile(filepath.Join(resultsDir(root), side+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(string(b), "\n"); got != 20 {
			t.Errorf("%s.jsonl has %d lines, want 10 pairs × 2 workloads", side, got)
		}
		if !strings.HasPrefix(string(b), `{"workload":"a","seed":1,"pair":1,"correct":true,`) {
			t.Errorf("%s.jsonl starts %.80s", side, b)
		}
	}
	// Which side goes first flips every pair, the seed every two; each
	// workload's two runs are neighbours.
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	tree := filepath.Base(root)
	want := "" +
		"parent a 1 7 0\n" + tree + " a 1 7 0\nparent b 1 7 0\n" + tree + " b 1 7 0\n" +
		tree + " a 1 7 0\nparent a 1 7 0\n" + tree + " b 1 7 0\nparent b 1 7 0\n" +
		"parent a 2 7 0\n" + tree + " a 2 7 0\nparent b 2 7 0\n" + tree + " b 2 7 0\n" +
		tree + " a 2 7 0\nparent a 2 7 0\n" + tree + " b 2 7 0\nparent b 2 7 0\n" +
		"parent a 1 7 0\n"
	if !strings.HasPrefix(string(log), want) {
		t.Errorf("running order:\n%s\nwant it to start:\n%s", log, want)
	}
	if _, err := os.Stat(filepath.Join(root, ".bench_build", "parent")); !os.IsNotExist(err) {
		t.Errorf("the parent's tree is still there: %v", err)
	}

	// A revision without the benchmark is refused before anything runs; one
	// whose benchmark breaks half-way leaves no tree behind either.
	if err := run(context.Background(), root, []string{"-ref", "HEAD~1"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "benchmark/run.sh") {
		t.Errorf("-ref HEAD~1: error = %v", err)
	}
	write("benchmark/run.sh", "#!/bin/sh\necho building; exit 3\n")
	err = run(context.Background(), root, []string{"-ref", "HEAD", "-pairs", "2"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "pair 1, a on the change") {
		t.Errorf("a change whose benchmark prints no result: error = %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, ".bench_build", "parent")); !os.IsNotExist(err) {
		t.Errorf("the parent's tree is still there after a failure: %v", err)
	}
	if err := run(context.Background(), root, []string{"-ref", "HEAD", "-pairs", "0"}, &out, &errb); err == nil {
		t.Error("-pairs 0 accepted")
	}
}
