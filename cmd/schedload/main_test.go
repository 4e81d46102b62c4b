package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestLoadSelfHostedBothModes runs a short self-hosted burst and checks the
// generator completes with traffic and no errors. The name dates from when
// a second read mode (reads through the scheduler mailbox) existed; the
// snapshot mode is the one that remains.
func TestLoadSelfHostedBothModes(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		var out strings.Builder
		err := run([]string{
			"-procs", "16", "-queue", "16",
			"-readers", "2", "-writers", "1",
			"-duration", "200ms",
		}, &out)
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		s := out.String()
		for _, want := range []string{"mode=snapshot", "reads:", "writes:", "errors=0"} {
			if !strings.Contains(s, want) {
				t.Errorf("report missing %q:\n%s", want, s)
			}
		}
	})
}

// TestLoadWALMode runs a short self-hosted burst with the journal on: the
// writes must still complete without errors and the mode tag must say so.
func TestLoadWALMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-procs", "16", "-queue", "8",
		"-readers", "1", "-writers", "2",
		"-duration", "200ms",
		"-data-dir", t.TempDir(),
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "mode=snapshot+wal") {
		t.Errorf("missing WAL mode tag in report:\n%s", s)
	}
	for _, want := range []string{"writes:", "errors=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestLoadKillMode is the end-to-end crash drill: build the real schedd
// binary, SIGKILL it mid-burst twice, and require both recoveries to match
// the shadow replay of the journal.
func TestLoadKillMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crash-cycles a real daemon")
	}
	bin := filepath.Join(t.TempDir(), "schedd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/schedd").CombinedOutput(); err != nil {
		t.Fatalf("build schedd: %v\n%s", err, out)
	}
	var out strings.Builder
	err := run([]string{
		"-kill", "-schedd", bin,
		"-data-dir", t.TempDir(),
		"-procs", "16", "-writers", "2",
		"-iters", "2", "-burst", "250ms",
	}, &out)
	if err != nil {
		t.Fatalf("kill mode: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"iteration 1:", "iteration 2:",
		"matches shadow", "no acknowledged write lost",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("kill report missing %q:\n%s", want, s)
		}
	}
}

// TestLoadJSONReport checks the machine-readable form carries real counts.
func TestLoadJSONReport(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-procs", "8", "-queue", "4", "-readers", "1", "-writers", "0",
		"-duration", "100ms", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{`"mode": "snapshot"`, `"qps"`, `"p99_us"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON report missing %q:\n%s", want, s)
		}
	}
}

// TestLoadFlagValidation pins the argument errors.
func TestLoadFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-readers", "0", "-writers", "0"}, &out); err == nil {
		t.Error("zero readers and writers should fail")
	}
	if err := run([]string{"-duration", "0s"}, &out); err == nil {
		t.Error("zero duration should fail")
	}
	if err := run([]string{"-shards", "0"}, &out); err == nil {
		t.Error("zero shards should fail")
	}
	if err := run([]string{"-shards", "2", "-route", "bogus", "-duration", "100ms"}, &out); err == nil {
		t.Error("unknown route should fail")
	}
}

// TestLoadFederated runs short federated bursts: a read+write mix over a
// width-routed federation and a write-only sweep (the shape of the
// PR 7 write-scaling experiment), both of which must complete error-free
// with the federated mode tag.
func TestLoadFederated(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		var out strings.Builder
		err := run([]string{
			"-procs", "16", "-queue", "16", "-shards", "2", "-route", "width",
			"-readers", "2", "-writers", "2", "-duration", "200ms",
		}, &out)
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		s := out.String()
		if !strings.Contains(s, "mode=fed-2-width") {
			t.Errorf("missing federated mode tag:\n%s", s)
		}
		for _, want := range []string{"reads:", "writes:", "errors=0"} {
			if !strings.Contains(s, want) {
				t.Errorf("report missing %q:\n%s", want, s)
			}
		}
	})
	t.Run("write-only-json", func(t *testing.T) {
		var out strings.Builder
		err := run([]string{
			"-procs", "16", "-queue", "8", "-shards", "2", "-route", "hash",
			"-readers", "0", "-writers", "2", "-duration", "200ms", "-json",
		}, &out)
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		s := out.String()
		for _, want := range []string{`"mode": "fed-2-hash"`, `"shards": 2`, `"route": "hash"`} {
			if !strings.Contains(s, want) {
				t.Errorf("JSON report missing %q:\n%s", want, s)
			}
		}
	})
	t.Run("federated-wal", func(t *testing.T) {
		var out strings.Builder
		err := run([]string{
			"-procs", "16", "-queue", "4", "-shards", "2",
			"-readers", "1", "-writers", "1", "-duration", "150ms",
			"-data-dir", t.TempDir(),
		}, &out)
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		if s := out.String(); !strings.Contains(s, "mode=fed-2-width+wal") {
			t.Errorf("missing federated WAL mode tag:\n%s", s)
		}
	})
}

// TestLoadKillFederated is the federated crash drill: four real schedd
// members with per-shard journals, one SIGKILLed per iteration while the
// drill requires the survivors to keep acknowledging writes and the victim
// to recover to the shadow replay's hash.
func TestLoadKillFederated(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crash-cycles a real 4-shard federation")
	}
	bin := filepath.Join(t.TempDir(), "schedd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/schedd").CombinedOutput(); err != nil {
		t.Fatalf("build schedd: %v\n%s", err, out)
	}
	var out strings.Builder
	err := run([]string{
		"-kill", "-shards", "4", "-schedd", bin,
		"-data-dir", t.TempDir(),
		"-procs", "16", "-writers", "4",
		"-iters", "2", "-burst", "300ms",
	}, &out)
	if err != nil {
		t.Fatalf("federated kill mode: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"iteration 1: shard 0 killed", "iteration 2: shard 1 killed",
		"3 siblings stayed live", "matches shadow", "no acknowledged write lost",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("federated kill report missing %q:\n%s", want, s)
		}
	}
}

// buildSchedd compiles the real daemon once per test that needs it.
func buildSchedd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "schedd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/schedd").CombinedOutput(); err != nil {
		t.Fatalf("build schedd: %v\n%s", err, out)
	}
	return bin
}

// TestLoadReplicaBench spins a leader plus one follower, requires the
// followers to catch up before the window opens, and the read mix to be
// error-free across both endpoints.
func TestLoadReplicaBench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real daemons")
	}
	bin := buildSchedd(t)
	var out strings.Builder
	err := run([]string{
		"-replicas", "1", "-schedd", bin,
		"-data-dir", t.TempDir(),
		"-procs", "16", "-queue", "16",
		"-readers", "2", "-writers", "1",
		"-duration", "300ms",
	}, &out)
	if err != nil {
		t.Fatalf("replica bench: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "mode=replica-1") {
		t.Errorf("missing replica mode tag:\n%s", s)
	}
	for _, want := range []string{"leader:", "follower-1:", "aggregate read capacity", "writes:", "errors=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestLoadPromoteMode is the end-to-end failover drill: SIGKILL the leader
// mid-burst twice and require the follower to promote each time with the
// shadow replay's hash and every acknowledged write.
func TestLoadPromoteMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crash-cycles real daemons")
	}
	bin := buildSchedd(t)
	var out strings.Builder
	err := run([]string{
		"-promote", "-schedd", bin,
		"-data-dir", t.TempDir(),
		"-procs", "16", "-writers", "2",
		"-iters", "2", "-burst", "250ms",
	}, &out)
	if err != nil {
		t.Fatalf("promote mode: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"cycle 1:", "cycle 2:",
		"follower promoted (term 1)", "follower promoted (term 2)",
		"matches shadow", "no acknowledged write lost",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("promote report missing %q:\n%s", want, s)
		}
	}
}

// TestLoadReplicaFlagValidation pins the replica-mode argument errors.
func TestLoadReplicaFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-replicas", "1", "-kill"}, &out); err == nil {
		t.Error("-replicas with -kill should fail")
	}
	if err := run([]string{"-promote", "-shards", "2"}, &out); err == nil {
		t.Error("-promote with -shards should fail")
	}
	if err := run([]string{"-promote", "-replicas", "1"}, &out); err == nil {
		t.Error("-promote with -replicas should fail")
	}
	if err := run([]string{"-replicas", "1", "-readers", "0"}, &out); err == nil {
		t.Error("replica bench without readers should fail")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := percentile(sorted, 0.99); got != 9 {
		t.Errorf("p99 = %d, want 9", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %d, want 0", got)
	}
}
