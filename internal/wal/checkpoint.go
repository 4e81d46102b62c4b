package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// FormatVersion is bumped whenever the on-disk encoding changes
// incompatibly; recovery refuses journals from the future.
const FormatVersion = 1

// Config pins the server configuration a journal was written under.
// Recovery refuses to replay a journal into a differently configured
// scheduler — a 128-proc EASY journal applied to a 64-proc conservative
// daemon would "succeed" into silent nonsense.
type Config struct {
	Procs     int    `json:"procs"`
	Scheduler string `json:"scheduler"`
	Policy    string `json:"policy"`
	Audit     bool   `json:"audit"`
	// IDStart/IDStride pin a federated shard's job-ID congruence class
	// (shard i of N assigns IDs i+1, i+1+N, ...). Zero for a standalone
	// daemon, so pre-federation journals stay recoverable.
	IDStart  int `json:"id_start,omitempty"`
	IDStride int `json:"id_stride,omitempty"`
}

// Meta is a checkpoint's header: where in the journal it stands and what
// state replaying its ops must reproduce.
type Meta struct {
	Format int    `json:"format"`
	Seq    uint64 `json:"seq"` // last journal record the checkpoint covers
	Ops    int    `json:"ops"` // number of compacted op lines that follow
	Config Config `json:"config"`

	// SimNow, NextID and Drained describe the serving state at Seq; the
	// recovering server cross-checks them after replay.
	SimNow  int64 `json:"sim_now"`
	NextID  int   `json:"next_id"`
	Drained bool  `json:"drained,omitempty"`
	// StateHash is sim.Session.StateHash() at Seq, encoded as a decimal
	// string so JSON number round-tripping cannot shave low bits.
	StateHash uint64 `json:"state_hash,string"`
	// Submitted/Cancelled counter values at Seq (replay cross-check).
	Submitted int64 `json:"submitted"`
	Cancelled int64 `json:"cancelled"`

	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// EncodeMeta appends m as one CRC-framed header line (newline included) —
// the first line of a checkpoint file, reused verbatim by the replication
// endpoint's full-resync response.
func EncodeMeta(dst []byte, m Meta) ([]byte, error) {
	header, err := json.Marshal(m)
	if err != nil {
		return dst, fmt.Errorf("wal: encode checkpoint meta: %w", err)
	}
	return appendFramed(dst, header), nil
}

// DecodeMeta validates and decodes one framed meta line (without its
// trailing newline).
func DecodeMeta(line []byte) (Meta, error) {
	header, err := unframe(line)
	if err != nil {
		return Meta{}, fmt.Errorf("wal: meta line: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(header, &meta); err != nil {
		return Meta{}, fmt.Errorf("wal: meta line: %w", err)
	}
	if meta.Format != FormatVersion {
		return Meta{}, fmt.Errorf("wal: meta has format %d, this build reads %d", meta.Format, FormatVersion)
	}
	return meta, nil
}

// writeCheckpoint durably writes one checkpoint file: meta line followed by
// meta.Ops framed record lines, all CRC-framed, written to a temp file,
// synced, then renamed into place so a crash never leaves a half-visible
// checkpoint under its final name.
func writeCheckpoint(dir string, meta Meta, ops []Record) error {
	if meta.CreatedUnix == 0 {
		meta.CreatedUnix = time.Now().Unix()
	}
	header, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("wal: encode checkpoint meta: %w", err)
	}
	buf := appendFramed(nil, header)
	for _, r := range ops {
		if buf, err = appendRecord(buf, r); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, "checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, ckptName(meta.Seq))); err != nil {
		return fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	return nil
}

// readCheckpoint loads and fully validates one checkpoint file. Any defect
// — framing, CRC, JSON, op count, op sequence — invalidates the whole file;
// a checkpoint is all-or-nothing by design.
func readCheckpoint(path string) (Meta, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("wal: %w", err)
	}
	sc := NewScanner("checkpoint "+path, data)
	meta, err := sc.Meta()
	if err != nil {
		return Meta{}, nil, err
	}
	ops := make([]Record, 0, meta.Ops)
	for {
		r, _, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Meta{}, nil, fmt.Errorf("wal: checkpoint %s op %d: %w", path, len(ops), err)
		}
		if r.Seq > meta.Seq {
			return Meta{}, nil, fmt.Errorf("wal: checkpoint %s op %d: seq %d past the cover %d", path, len(ops), r.Seq, meta.Seq)
		}
		ops = append(ops, r)
	}
	if len(ops) != meta.Ops {
		return Meta{}, nil, fmt.Errorf("wal: checkpoint %s has %d op lines, meta promises %d", path, len(ops), meta.Ops)
	}
	return meta, ops, nil
}
