package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// State is everything recovery needs: the newest valid checkpoint (with its
// compacted op prefix) and the journal tail past it. Replaying
// CheckpointOps then Tail, in order, reconstructs the durable state.
type State struct {
	// Checkpoint is nil when recovery starts from genesis.
	Checkpoint    *Meta
	CheckpointOps []Record
	// Tail holds the journal records past the checkpoint, contiguous from
	// Checkpoint.Seq+1 (or from 1 at genesis).
	Tail []Record
	// NextSeq is 1 + the highest sequence number the journal has used.
	NextSeq uint64
	// TruncatedBytes counts bytes of torn final record in the newest
	// segment — the expected residue of a crash mid-append, or of reading a
	// live journal mid-write. A writer Open removes them from the file; a
	// read-only Load leaves the file untouched and just ignores them.
	TruncatedBytes int64
	// Warnings records non-fatal oddities (e.g. an unreadable newer
	// checkpoint that was skipped for an older valid one).
	Warnings []string
}

// Ops returns the full replay sequence: checkpoint prefix then tail.
func (st *State) Ops() []Record {
	out := make([]Record, 0, len(st.CheckpointOps)+len(st.Tail))
	out = append(out, st.CheckpointOps...)
	return append(out, st.Tail...)
}

// Load recovers the durable state from dir without opening it for writing:
// no flock is taken and nothing on disk is mutated, so it is safe against a
// journal another process is actively appending to. A torn final record —
// a crash's residue, or an append caught mid-frame — is ignored (reported
// in TruncatedBytes), never truncated; the caller sees the journal as of
// the last complete record and can simply load again for a newer view.
// Tools (the crash-mode shadow replay) and follower replicas' full-resync
// path both read journals this way.
//
// A checkpoint landing while Load is between its directory listings prunes
// files Load has already chosen, and what is left can look like a gap. That
// is a stale view, not damage: when a load fails and a newer checkpoint has
// appeared meanwhile, Load looks again. The bound on tries only stops a
// writer that checkpoints faster than a Load reads from starving it.
func Load(dir string) (*State, error) {
	for try := 0; ; try++ {
		before := newestCheckpoint(dir)
		st, _, err := load(dir, nil)
		if err == nil || try == 16 || newestCheckpoint(dir) == before {
			return st, err
		}
	}
}

// newestCheckpoint returns the highest checkpoint seq named in dir, 0 when
// there is none.
func newestCheckpoint(dir string) uint64 {
	ckpts, _ := listSorted(dir, ckptPrefix, ckptSuffix)
	if len(ckpts) == 0 {
		return 0
	}
	return ckpts[len(ckpts)-1].first
}

// load scans dir and returns the recovered state plus per-segment info for
// the Log's bookkeeping. With h (the writer's boot path), a torn final
// record is removed from the active segment and h collects the replay
// history from the checkpoint's op lines and the tail's frames as read;
// without, a torn record is left in place and ignored (the read-only path —
// truncating would destroy bytes a live appender may still be writing).
func load(dir string, h *History) (*State, []segInfo, error) {
	st := &State{NextSeq: 1}

	// Newest checkpoint that fully validates wins; broken ones are skipped
	// with a warning as long as an older checkpoint or a genesis-complete
	// journal can still anchor recovery.
	ckpts, err := listSorted(dir, ckptPrefix, ckptSuffix)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return st, nil, nil
		}
		return nil, nil, err
	}
	for i := len(ckpts) - 1; i >= 0; i-- {
		meta, ops, lines, err := readCheckpoint(ckpts[i].path)
		if err != nil {
			st.Warnings = append(st.Warnings, err.Error())
			continue
		}
		st.Checkpoint = &meta
		st.CheckpointOps = ops
		if h != nil {
			h.adopt(lines, ops)
		}
		break
	}
	ckptSeq := uint64(0)
	if st.Checkpoint != nil {
		ckptSeq = st.Checkpoint.Seq
	}

	segs, err := listSorted(dir, segPrefix, segSuffix)
	if err != nil {
		return nil, nil, err
	}
	var all []Record
	for i := range segs {
		isLast := i == len(segs)-1
		recs, tornAt, err := scanSegment(segs[i].path, isLast, h, ckptSeq)
		if err != nil {
			return nil, nil, err
		}
		if tornAt >= 0 {
			fi, err := os.Stat(segs[i].path)
			if err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
			st.TruncatedBytes = fi.Size() - tornAt
			if h != nil {
				if err := os.Truncate(segs[i].path, tornAt); err != nil {
					return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
				}
			}
		}
		if len(recs) > 0 && recs[0].Seq != segs[i].first {
			return nil, nil, fmt.Errorf("%w: segment %s starts at seq %d, name promises %d",
				ErrCorrupt, segs[i].path, recs[0].Seq, segs[i].first)
		}
		segs[i].last = segs[i].first - 1
		if len(recs) > 0 {
			segs[i].last = recs[len(recs)-1].Seq
		}
		all = append(all, recs...)
	}

	// The replay tail is everything past the checkpoint. It must be
	// contiguous from ckptSeq+1 — a gap means a segment the checkpoint does
	// not cover went missing, and replaying around it would half-apply.
	for _, r := range all {
		if r.Seq <= ckptSeq {
			continue // compacted into the checkpoint; pruning just hadn't caught up
		}
		want := ckptSeq + uint64(len(st.Tail)) + 1
		if r.Seq != want {
			return nil, nil, fmt.Errorf("%w: journal tail needs seq %d next but found %d (checkpoint covers through %d)",
				ErrCorrupt, want, r.Seq, ckptSeq)
		}
		st.Tail = append(st.Tail, r)
	}
	st.NextSeq = ckptSeq + uint64(len(st.Tail)) + 1
	return st, segs, nil
}

// scanSegment reads one segment's records. In the last (active) segment a
// trailing defect — partial line or failed CRC with nothing valid after it
// — is a torn write: scanSegment reports the byte offset to truncate at.
// Anywhere else a defect is corruption. With h, the frames of the records
// past after join the replay history.
func scanSegment(path string, isLast bool, h *History, after uint64) (recs []Record, tornAt int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, -1, fmt.Errorf("wal: %w", err)
	}
	sc := NewScanner(path, data)
	for {
		r, frame, err := sc.Next()
		switch {
		case err == io.EOF:
			return recs, -1, nil
		case errors.Is(err, errTorn) && isLast:
			return recs, sc.off, nil
		case errors.Is(err, errTorn):
			return nil, -1, fmt.Errorf("%w: sealed segment: %v", ErrCorrupt, err)
		case err != nil:
			return nil, -1, err
		}
		recs = append(recs, r)
		if h != nil && r.Seq > after {
			h.add(frame, r.Op == OpAdvance)
		}
	}
}
