package wal

// Tailing: the read side of journal shipping. A Tailer follows a journal
// directory another process is actively appending to, returning complete
// records in sequence order and never mutating anything on disk. It is the
// primitive under follower replicas (internal/replica) and the leader's
// /v1/wal streaming endpoint.
//
// The contract with the single writer makes this safe without any
// coordination: records carry strictly increasing sequence numbers, a
// writer only ever appends to the newest segment, and a segment becomes
// immutable ("sealed") the moment a newer one exists. A partial or
// CRC-failing final line is therefore either an append caught mid-frame or
// a crash's torn tail — the Tailer stops in front of it and picks up on
// the next call, by which time the appender has finished the frame or a
// recovering writer has truncated it. Undecodable bytes with valid records
// after them can only be real corruption and fail loudly, exactly like
// recovery.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrGone is returned when the record after the Tailer's position has been
// pruned from the directory — a checkpoint retired the segments a lagging
// reader still needed. The reader cannot continue incrementally and must
// resync from the newest checkpoint (see Load). The retention floor
// (Log.SetRetainFloor) exists to keep registered followers out of this
// path; hitting it is loud by design.
var ErrGone = errors.New("wal: tail position pruned")

// Tailer incrementally reads a journal directory past a starting sequence
// number. Not safe for concurrent use; one goroutine per Tailer.
type Tailer struct {
	dir  string
	seq  uint64 // last record returned
	path string // segment currently being read; "" means locate on next call
	off  int64  // offset of the first unread byte in path
	buf  []byte // the scanner's window, reused across calls
	read int64  // bytes read from disk so far

	pending int64 // bytes of path past off when the current scan began
}

// minFrame is the shortest frame there is: the CRC field, a record with a
// one-digit seq, the shortest op and no operand, and the newline.
const minFrame = int64(frameHead + len(`{"s":1,"op":"term"}`) + 1)

// NewTailer positions a reader so its first record will be after+1.
func NewTailer(dir string, after uint64) *Tailer {
	return &Tailer{dir: dir, seq: after}
}

// Seq returns the sequence number of the last record returned.
func (t *Tailer) Seq() uint64 { return t.seq }

// BytesRead returns how many bytes the Tailer has read from disk. Held
// against the bytes of the records it returned it shows what a pull costs:
// a Tailer that keeps its position reads each byte once, a fresh one reads
// its segment from the start to find its place.
func (t *Tailer) BytesRead() int64 { return t.read }

// Next returns up to max complete records past the Tailer's position (all
// of them when max <= 0). An empty result with a nil error means caught
// up: nothing new is durable yet, poll again later. ErrGone means the
// position was pruned and the reader must resync; ErrCorrupt means the
// journal itself is damaged.
func (t *Tailer) Next(max int) ([]Record, error) {
	recs, _, err := t.next(nil, nil, max, false)
	return recs, err
}

// NextWithFrames is Next for a follower that keeps what it applies: it
// appends the records onto recs and their raw frames, in the same order,
// onto frames, so a caller can reuse both buffers from pull to pull.
func (t *Tailer) NextWithFrames(recs []Record, frames []byte, max int) ([]Record, []byte, error) {
	return t.next(recs, frames, max, true)
}

func (t *Tailer) next(out []Record, frames []byte, max int, keepFrames bool) ([]Record, []byte, error) {
	_, err := t.pull(max, func(r Record, frame []byte) {
		if out == nil && max > 0 {
			// One allocation for the pull instead of growth by doubling:
			// what the caller allows, bounded by what the bytes in sight can
			// hold, so a one-record pull by a caught-up follower stays small.
			out = make([]Record, 0, min(int64(max), 1024, t.pending/minFrame+1))
		}
		out = append(out, r)
		if keepFrames {
			frames = append(frames, frame...)
		}
	})
	return out, frames, err
}

// NextFrames is Next for a shipper: it appends the raw frames of up to max
// records — the exact bytes Append wrote, each validated like a record
// Next returns — onto dst and reports how many it appended.
func (t *Tailer) NextFrames(dst []byte, max int) ([]byte, int, error) {
	n, err := t.pull(max, func(_ Record, frame []byte) { dst = append(dst, frame...) })
	return dst, n, err
}

// pull hands up to max records past the Tailer's position to emit, each
// with its raw frame, and returns how many.
func (t *Tailer) pull(max int, emit func(Record, []byte)) (int, error) {
	if max <= 0 {
		max = int(^uint(0) >> 1)
	}
	n := 0
	for n < max {
		if t.path == "" {
			ok, err := t.locate()
			if err != nil || !ok {
				return n, err
			}
		}
		got, err := t.scan(max-n, emit)
		n += got
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				// The segment was pruned while we held its path. Relocate:
				// either a newer segment still covers our position, or the
				// journal moved on without us and locate reports ErrGone.
				t.path, t.off = "", 0
				continue
			}
			return n, err
		}
		if n >= max {
			return n, nil
		}
		// End of the current segment. If a newer segment exists ours is
		// sealed — one final scan (the writer never returns to a sealed
		// segment) and then relocate picks up the successor. Otherwise we
		// are caught up with the live appender.
		newer, err := t.newerSegmentExists()
		if err != nil {
			return n, err
		}
		if !newer {
			return n, nil
		}
		got, err = t.scan(max-n, emit)
		n += got
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return n, err
		}
		t.path, t.off = "", 0
	}
	return n, nil
}

// locate finds the segment containing seq+1 and positions the Tailer at
// its start (records at or below seq inside it are skipped by scan).
// Returns false with a nil error when the journal holds nothing past the
// position yet.
func (t *Tailer) locate() (bool, error) {
	segs, err := listSorted(t.dir, segPrefix, segSuffix)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil // directory not created yet
		}
		return false, err
	}
	if len(segs) == 0 {
		if t.seq == 0 {
			return false, nil // journal never written
		}
		return false, fmt.Errorf("%w: no segments left in %s, reader at seq %d", ErrGone, t.dir, t.seq)
	}
	want := t.seq + 1
	idx := -1
	for i, s := range segs {
		if s.first <= want {
			idx = i
		}
	}
	if idx == -1 {
		return false, fmt.Errorf("%w: next record %d precedes oldest segment %s", ErrGone, want, segs[0].path)
	}
	t.path, t.off = segs[idx].path, 0
	return true, nil
}

// scan reads the current segment from the stored offset on — never the
// bytes before it, so a pull costs the bytes it returns plus at most one
// chunk — emits up to limit records past the Tailer's position and returns
// how many. It stops in front of a partial or undecodable final frame — an
// in-flight append or a torn crash tail — leaving the offset there for the
// next call.
func (t *Tailer) scan(limit int, emit func(Record, []byte)) (int, error) {
	f, err := os.Open(t.path)
	if err != nil {
		return 0, err // fs.ErrNotExist bubbles to pull's relocate path
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if t.off > fi.Size() {
		// We never move the offset past undecodable bytes, and a recovering
		// writer only ever truncates those, so a file shrinking below the
		// offset means the journal was rewritten under us.
		return 0, fmt.Errorf("%w: segment %s shrank below read offset %d", ErrCorrupt, t.path, t.off)
	}
	t.pending = fi.Size() - t.off
	sc := Scanner{name: t.path, src: f, base: t.off, off: t.off, buf: t.buf[:0]}
	defer func() { t.buf, t.read = sc.buf, t.read+sc.read }()
	n := 0
	for n < limit {
		r, frame, err := sc.Next()
		if err == io.EOF || errors.Is(err, errTorn) {
			break // caught up, or wait for the writer to finish or truncate the frame
		}
		if err != nil {
			return n, err
		}
		if r.Seq > t.seq {
			if r.Seq != t.seq+1 {
				return n, fmt.Errorf("%w: %s jumps from seq %d to %d", ErrCorrupt, t.path, t.seq, r.Seq)
			}
			emit(r, frame)
			t.seq = r.Seq
			n++
		}
		t.off = sc.off
	}
	return n, nil
}

// newerSegmentExists reports whether the directory holds a segment past
// the one currently being read.
func (t *Tailer) newerSegmentExists() (bool, error) {
	first, ok := parseSeq(filepath.Base(t.path), segPrefix, segSuffix)
	if !ok {
		return false, fmt.Errorf("wal: unparseable segment name %s", t.path)
	}
	segs, err := listSorted(t.dir, segPrefix, segSuffix)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	for _, s := range segs {
		if s.first > first {
			return true, nil
		}
	}
	return false, nil
}
