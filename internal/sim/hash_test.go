package sim_test

// StateHash is the durability layer's equivalence oracle: a recovering
// daemon replays the journal and compares hashes against the crashed
// process. These tests pin the two properties that make that comparison
// meaningful — path-independence (incremental and batch execution of the
// same submissions land on the same hash, for every scheduler kind, with
// and without the audit wrapper) and sensitivity (a divergent history
// lands on a different hash).

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestStateHashIncrementalEqualsBatch(t *testing.T) {
	jobs, procs := equivWorkload(t)
	pol, err := sched.PolicyByName("FCFS")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range sched.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			mk, err := sched.MakerFor(kind, pol)
			if err != nil {
				t.Fatal(err)
			}

			// Batch: submit everything up front, then drain.
			batch, err := sim.Open(sim.Machine{Procs: procs}, mk(procs), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if err := batch.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := batch.Drain(); err != nil {
				t.Fatal(err)
			}

			// Incremental: advance virtual time to each arrival before
			// submitting, behind the audit wrapper (which must be
			// hash-transparent now that it forwards reservations).
			aud := audit.New(procs, mk(procs), audit.OptionsForKind(kind, pol))
			inc, err := sim.Open(sim.Machine{Procs: procs}, aud, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if err := inc.AdvanceTo(j.Arrival - 1); err != nil {
					t.Fatal(err)
				}
				if err := inc.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := inc.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := aud.Err(); err != nil {
				t.Fatal(err)
			}

			if bh, ih := batch.StateHash(), inc.StateHash(); bh != ih {
				t.Fatalf("batch hash %#x != incremental hash %#x", bh, ih)
			}
		})
	}
}

// TestStateHashStableAcrossCalls pins that hashing is a pure read: two
// consecutive calls agree, and hashing does not disturb the session.
func TestStateHashStableAcrossCalls(t *testing.T) {
	jobs, procs := equivWorkload(t)
	pol, _ := sched.PolicyByName("FCFS")
	mk, err := sched.MakerFor("easy", pol)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sim.Open(sim.Machine{Procs: procs}, mk(procs), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:50] {
		if err := ss.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.AdvanceTo(jobs[20].Arrival); err != nil {
		t.Fatal(err)
	}
	h1 := ss.StateHash()
	if h2 := ss.StateHash(); h2 != h1 {
		t.Fatalf("hash changed between calls: %#x then %#x", h1, h2)
	}
	ver := ss.Version()
	ss.StateHash()
	if ss.Version() != ver {
		t.Fatal("StateHash mutated the session version")
	}
}

// TestStateHashSensitivity pins that histories a client can tell apart
// hash differently: an extra submission, a cancellation, and a different
// clock all perturb the digest. The instant is job 120's arrival, when
// seven jobs wait in the queue, so there is a queued job to cancel; a
// cancelled job that has not arrived yet leaves no trace but its cancel
// flag. The clock moves only from event to event (AdvanceTo(at+1) with
// nothing due leaves it at at), so the later session steps to the next
// event instant.
func TestStateHashSensitivity(t *testing.T) {
	jobs, procs := equivWorkload(t)
	pol, _ := sched.PolicyByName("FCFS")
	mk, err := sched.MakerFor("conservative", pol)
	if err != nil {
		t.Fatal(err)
	}
	const fed = 150
	at := jobs[120].Arrival
	// open returns a session fed the first n jobs and advanced to at.
	open := func(n int) *sim.Session {
		ss, err := sim.Open(sim.Machine{Procs: procs}, mk(procs), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs[:n] {
			if err := ss.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := ss.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
		return ss
	}
	h0 := open(fed).StateHash()

	if h := open(fed + 1).StateHash(); h == h0 {
		t.Fatal("extra submission did not change the hash")
	}

	queued := open(fed)
	for _, c := range []struct {
		name   string
		ss     *sim.Session
		victim int
	}{
		{"queued", queued, pickQueued(t, queued)},
		{"pending", open(fed), jobs[fed-1].ID},
	} {
		if !c.ss.Cancel(c.victim) {
			t.Fatalf("cancel of %s job %d refused", c.name, c.victim)
		}
		if h := c.ss.StateHash(); h == h0 {
			t.Fatalf("cancelling a %s job did not change the hash", c.name)
		}
	}

	later := open(fed)
	next, ok := later.NextEventTime()
	if !ok {
		t.Fatal("no event after the instant")
	}
	if err := later.AdvanceTo(next); err != nil {
		t.Fatal(err)
	}
	if h := later.StateHash(); h == h0 {
		t.Fatal("advancing the clock did not change the hash")
	}
}

func pickQueued(t *testing.T, ss *sim.Session) int {
	t.Helper()
	q := ss.Queued()
	if len(q) == 0 {
		t.Fatal("no queued job to cancel at this instant")
	}
	return q[len(q)-1].ID
}
