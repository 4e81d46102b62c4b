package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// ErrCorrupt wraps every unrecoverable journal defect: a CRC mismatch with
// valid records after it, a sequence gap inside the replay tail, a
// checkpoint whose op list fails validation with no older fallback, or a
// mismatch between a segment's name and its first record. Recovery fails
// loudly on these — half-applying a journal is the one thing a durability
// layer must never do.
var ErrCorrupt = errors.New("wal: corrupt journal")

// ErrLocked is returned when another process holds the data directory.
var ErrLocked = errors.New("wal: data directory locked by another process")

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	lockName   = "LOCK"
)

func segName(firstSeq uint64) string { return fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, segSuffix) }
func ckptName(seq uint64) string     { return fmt.Sprintf("%s%016d%s", ckptPrefix, seq, ckptSuffix) }
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	return seq, err == nil
}

// segInfo is the Log's bookkeeping for one on-disk segment.
type segInfo struct {
	path        string
	first, last uint64 // last == first-1 when the segment is empty
}

// Options configure a Log.
type Options struct {
	// Fsync syncs the segment file after every Append (group commit: one
	// sync covers the whole batch). Off, appends still reach the kernel
	// before a write is acknowledged — surviving a process crash (SIGKILL)
	// but not a machine crash. See PERFORMANCE.md for the measured
	// tradeoff.
	Fsync bool
	// NoLock skips the flock guard (tests that intentionally reopen a dir
	// while simulating a crashed owner).
	NoLock bool
	// Notify, when set, is called by Append after a batch's records have
	// reached the kernel but before the fsync, with the batch's last
	// sequence number — the journal's appended position, which runs ahead
	// of Seq until the sync returns. That is the earliest instant a tailing
	// reader can see the bytes, so waking followers here lets their
	// pull/apply/ack round-trip overlap the leader's own disk sync — the
	// overlap that makes a follower ack quorum nearly free under Fsync.
	// Called on the appending goroutine; must not block.
	Notify func(appended uint64)
}

// Log is an open journal: the append side of the WAL plus checkpoint
// management. A Log is single-writer by contract (the scheduler goroutine);
// it is not internally synchronized.
type Log struct {
	dir    string
	opts   Options
	lock   *os.File
	f      *os.File // active segment
	segs   []segInfo
	seq    uint64 // last assigned sequence number
	ckpt   uint64 // seq covered by the newest durable checkpoint (0: none)
	retain uint64 // keep segments holding records past this seq (follower floor)
	buf    []byte // append scratch, reused across batches
}

// Open locks dir (creating it if needed), recovers the durable state —
// newest valid checkpoint plus the journal tail past it, truncating a torn
// final record — and returns the Log positioned to append after the last
// surviving record. The returned State is what the caller must replay.
func Open(dir string, opts Options) (*Log, *State, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, retain: ^uint64(0)}
	if !opts.NoLock {
		lf, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
			lf.Close()
			return nil, nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		l.lock = lf
	}
	st, segs, err := load(dir, true)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	l.segs = segs
	l.seq = st.NextSeq - 1
	if st.Checkpoint != nil {
		l.ckpt = st.Checkpoint.Seq
	}
	// Append to the newest segment, or start the journal's first one.
	if len(l.segs) == 0 {
		if err := l.rotate(l.seq + 1); err != nil {
			l.Close()
			return nil, nil, err
		}
	} else {
		f, err := os.OpenFile(l.segs[len(l.segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			l.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
	}
	return l, st, nil
}

// Seq returns the sequence number of the last appended (or recovered)
// record; 0 means the journal is empty.
func (l *Log) Seq() uint64 { return l.seq }

// CheckpointSeq returns the sequence covered by the newest durable
// checkpoint, 0 when none exists.
func (l *Log) CheckpointSeq() uint64 { return l.ckpt }

// SegmentPath returns the active segment's path.
func (l *Log) SegmentPath() string {
	if len(l.segs) == 0 {
		return ""
	}
	return l.segs[len(l.segs)-1].path
}

// TailRecords reports how many journal records sit past the newest
// checkpoint — the length of the replay tail a recovery would process now.
func (l *Log) TailRecords() uint64 { return l.seq - l.ckpt }

// SetRetainFloor tells pruning to keep every segment holding records past
// seq — the minimum acknowledged position across registered follower
// replicas, so a lagging follower can keep tailing incrementally instead
// of being forced into a full-checkpoint resync. The default (MaxUint64)
// retains nothing extra. Takes effect at the next Checkpoint.
func (l *Log) SetRetainFloor(seq uint64) { l.retain = seq }

// RetainFloor returns the current follower retention floor.
func (l *Log) RetainFloor() uint64 { return l.retain }

// OldestSeq returns the first sequence number still readable from the
// journal's segments (0 when the journal is empty) — a tail reader
// positioned before it must resync from the checkpoint instead.
func (l *Log) OldestSeq() uint64 {
	for _, s := range l.segs {
		if s.last >= s.first {
			return s.first
		}
	}
	return 0
}

// Append assigns sequence numbers to recs, writes them as one buffered
// write, and (with Options.Fsync) syncs once for the whole batch — the
// group commit that keeps a burst of N acknowledged writes at one disk
// round-trip instead of N. On error the records must be considered not
// durable; the caller must not acknowledge them.
func (l *Log) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.buf = l.buf[:0]
	seq := l.seq
	for i := range recs {
		seq++
		recs[i].Seq = seq
		var err error
		l.buf, err = appendRecord(l.buf, recs[i])
		if err != nil {
			return err
		}
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if l.opts.Notify != nil {
		l.opts.Notify(seq)
	}
	if l.opts.Fsync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	l.seq = seq
	l.segs[len(l.segs)-1].last = seq
	return nil
}

// rotate closes the active segment and starts a fresh one whose first
// record will carry firstSeq.
func (l *Log) rotate(firstSeq uint64) error {
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segs = append(l.segs, segInfo{path: path, first: firstSeq, last: firstSeq - 1})
	return l.syncDir()
}

// syncDir makes directory-level mutations (new segment, checkpoint rename,
// prune) durable.
func (l *Log) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Checkpoint durably writes a checkpoint covering every record appended so
// far (meta.Seq is forced to the Log's current seq), rotates to a fresh
// segment, and prunes checkpoints and segments the new checkpoint makes
// redundant. The ops slice must replay to the exact state described by
// meta — the recovering side verifies meta.StateHash against its replay.
func (l *Log) Checkpoint(meta Meta, ops []Record) error {
	meta.Format = FormatVersion
	meta.Seq = l.seq
	meta.Ops = len(ops)
	if err := writeCheckpoint(l.dir, meta, ops); err != nil {
		return err
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	l.ckpt = meta.Seq
	if err := l.rotate(l.seq + 1); err != nil {
		return err
	}
	l.prune()
	return nil
}

// prune removes checkpoints older than the newest one and segments fully
// covered by it — except segments still above the follower retention floor
// (SetRetainFloor), which a registered replica has yet to acknowledge.
// Best effort: a leftover file is re-pruned on the next checkpoint and
// never confuses recovery, which filters by sequence.
func (l *Log) prune() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok && seq < l.ckpt {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	if len(l.segs) == 0 {
		return
	}
	active := len(l.segs) - 1
	keep := l.segs[:0]
	for i, s := range l.segs {
		if i != active && s.last <= l.ckpt && s.last <= l.retain {
			os.Remove(s.path)
			continue
		}
		keep = append(keep, s)
	}
	l.segs = keep
	l.syncDir()
}

// Close releases the segment file and the directory lock. Safe to call
// multiple times.
func (l *Log) Close() error {
	var first error
	if l.f != nil {
		first = l.f.Close()
		l.f = nil
	}
	if l.lock != nil {
		l.lock.Close() // closing the fd releases the flock
		l.lock = nil
	}
	return first
}

// listSorted returns dir entries matching prefix/suffix sorted by their
// embedded sequence number.
func listSorted(dir, prefix, suffix string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []segInfo
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), prefix, suffix); ok {
			out = append(out, segInfo{path: filepath.Join(dir, e.Name()), first: seq})
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].first < out[k].first })
	return out, nil
}
