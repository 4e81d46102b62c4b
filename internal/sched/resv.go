package sched

// resvTable is the reservation bookkeeping of the reservation engine:
// queued job ID -> reserved start. Every write goes through set, which also
// records the ID in a write log once somebody has asked for one — so an
// observer that must re-check a reservation whenever it changes
// (internal/audit) reads the IDs that moved instead of probing every queued
// job after every event. Only the shells that publish per-job guarantees
// (Conservative, SlackBased) export the way to ask. The engine writes the
// map through set and drop only, so a write cannot miss the log.
type resvTable struct {
	at map[int]int64
	// log holds the IDs set since the last drain, in write order and with
	// repeats. It stays empty until track switches logging on: a scheduler
	// nobody audits must not accumulate an entry per reservation forever.
	log     []int
	logging bool
}

func newResvTable() resvTable { return resvTable{at: make(map[int]int64)} }

// get returns the reserved start of job id, if it holds one.
func (r *resvTable) get(id int) (int64, bool) {
	t, ok := r.at[id]
	return t, ok
}

// set grants or moves the reservation of job id.
func (r *resvTable) set(id int, start int64) {
	r.at[id] = start
	if r.logging {
		r.log = append(r.log, id)
	}
}

// drop removes the reservation of job id (it started or was withdrawn).
// Drops are not logged: a job without a reservation has nothing to check.
func (r *resvTable) drop(id int) { delete(r.at, id) }

// track switches the write log on and returns its drain: each call yields
// the IDs written since the previous call, in a slice that is valid until
// the next write.
func (r *resvTable) track() (drain func() []int) {
	r.logging = true
	return func() []int {
		ids := r.log
		r.log = r.log[:0]
		return ids
	}
}
