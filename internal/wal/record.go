// Package wal is the scheduling daemon's durability layer: an append-only,
// CRC-framed, fsync-batched JSONL write-ahead journal of every mailbox
// mutation (submit, cancel, clock advance, drain), plus periodic checkpoints
// that bound recovery cost and let old journal segments be deleted.
//
// The design leans on the fact that the event engine is deterministic: a
// sim.Session's state is a pure function of the ordered mutation sequence
// applied to it. The journal therefore records logical operations, not
// state diffs, and recovery is replay. A checkpoint is an order-preserving
// compaction of the operation prefix it covers (consecutive clock advances
// collapse into the last one — the only rewrite that provably cannot change
// how events group into scheduling passes) together with the replaying
// server's state hash, so a recovering daemon can verify that replaying the
// checkpoint lands byte-identically where the checkpointing daemon stood.
//
// On-disk layout inside a data directory:
//
//	wal-<firstseq>.log        journal segments, CRC-framed JSONL
//	checkpoint-<seq>.ckpt     checkpoints; <seq> is the last op covered
//	LOCK                      flock guard against two daemons sharing a dir
//
// Each journal line is "crc32c(payload) in 8 hex digits, a space, the JSON
// payload, newline". A torn final record (partial line, or a CRC mismatch on
// the very last record) is the expected signature of a crash mid-append and
// is truncated away on recovery; a bad record with valid records after it
// can only be corruption and fails recovery loudly. Records carry strictly
// increasing sequence numbers so a gap between a checkpoint and its tail —
// or between segments — is detected instead of silently half-applied.
package wal

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
)

// Op enumerates the journaled mutation kinds.
const (
	// OpSubmit records one accepted job submission (the full job record,
	// including the arrival instant the daemon assigned).
	OpSubmit = "submit"
	// OpCancel records a successful cancellation of a queued or pending job.
	OpCancel = "cancel"
	// OpAdvance records that the session processed every event up to and
	// including virtual instant To. Replaying AdvanceTo(To) regroups the
	// same events into the same per-instant scheduling passes.
	OpAdvance = "advance"
	// OpDrain records the start of a graceful drain: admissions stopped and
	// the remaining schedule fast-forwards to completion. Replay re-runs the
	// fast-forward, so a crash mid-drain recovers to the drained state.
	OpDrain = "drain"
	// OpFloor records an ID reservation: every job ID up to and including ID
	// is taken, so the next assigned ID must land above it (in the daemon's
	// own ID congruence class — see serve.Options.IDStride). Federation
	// front ends journal one after partitioning a preloaded trace, so a
	// recovered shard cannot re-issue an ID a sibling shard already holds.
	OpFloor = "floor"
	// OpTerm fences a leadership change: a promoted follower appends one
	// with the incremented term before accepting its first write, so any
	// process replaying the journal — including a revived old leader — sees
	// that the lineage moved on. The record mutates no scheduling state.
	OpTerm = "term"
)

// JobRec is the journaled form of a submitted job. It mirrors job.Job field
// for field; wal keeps its own struct so the on-disk schema is explicit and
// cannot drift silently when the in-memory job grows fields.
type JobRec struct {
	ID       int   `json:"id"`
	Arrival  int64 `json:"arr"`
	Runtime  int64 `json:"rt"`
	Estimate int64 `json:"est"`
	Width    int   `json:"w"`
	User     int   `json:"u,omitempty"`
}

// Record is one journal entry. Seq is assigned by the Writer at append time
// and is strictly increasing across the whole journal (checkpoints included).
type Record struct {
	Seq  uint64  `json:"s"`
	Op   string  `json:"op"`
	Job  *JobRec `json:"job,omitempty"`  // OpSubmit
	ID   int     `json:"id,omitempty"`   // OpCancel, OpFloor
	To   int64   `json:"to,omitempty"`   // OpAdvance
	Term uint64  `json:"term,omitempty"` // OpTerm
}

// castagnoli is the CRC32-C table; the same polynomial storage systems use,
// chosen over IEEE for its error-detection properties on short records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHead is the width of a frame's CRC field and the space after it.
const frameHead = 9

// beginFrame reserves a frame's CRC field on dst; the payload is appended
// behind it and endFrame closes the frame.
func beginFrame(dst []byte) []byte { return append(dst, "00000000 "...) }

// endFrame closes the frame beginFrame opened at dst[start]: it patches the
// payload's CRC into the reserved field and terminates the line.
func endFrame(dst []byte, start int) []byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(dst[start+frameHead:], castagnoli))
	hex.Encode(dst[start:start+8], sum[:])
	return append(dst, '\n')
}

// appendFramed encodes payload as one CRC-framed journal line onto dst.
func appendFramed(dst, payload []byte) []byte {
	start := len(dst)
	return endFrame(append(beginFrame(dst), payload...), start)
}

// unframe validates one journal line (without its trailing newline) and
// returns the JSON payload.
func unframe(line []byte) ([]byte, error) {
	if len(line) <= frameHead || line[frameHead-1] != ' ' {
		return nil, fmt.Errorf("wal: short or unframed line (%d bytes)", len(line))
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[:8]); err != nil {
		return nil, fmt.Errorf("wal: bad CRC field: %w", err)
	}
	want := binary.BigEndian.Uint32(sum[:])
	payload := line[frameHead:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("wal: CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, nil
}

// EncodeRecord appends r as one CRC-framed journal line (newline included)
// onto dst — the exact bytes Append would write. Exported for the
// replication endpoint, which streams journal frames over HTTP.
func EncodeRecord(dst []byte, r Record) ([]byte, error) {
	return appendRecord(dst, r)
}

// DecodeRecord validates and decodes one framed journal line (without its
// trailing newline) — the follower half of EncodeRecord.
func DecodeRecord(line []byte) (Record, error) {
	return decodeRecord(line)
}

// Coalesce appends r to ops, collapsing consecutive advances: an advance
// directly after another advance replaces it, because AdvanceTo(t2) after
// AdvanceTo(t1<=t2) processes exactly the instants the pair did, in the same
// per-instant groups. Advances separated by a submit or cancel are NOT
// merged — that would regroup same-instant events into a different
// scheduling pass. This is the only compaction checkpoints apply; History
// applies it to framed bytes, and Coalesce is the reference its tests
// hold it to.
func Coalesce(ops []Record, r Record) []Record {
	if r.Op == OpAdvance && len(ops) > 0 && ops[len(ops)-1].Op == OpAdvance {
		ops[len(ops)-1] = r
		return ops
	}
	return append(ops, r)
}
