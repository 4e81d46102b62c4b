package wal

import (
	"bytes"
	"fmt"
)

// histChunk is the size of one history chunk. A variable so tests can put
// chunk seams a few frames apart; it is not an option.
var histChunk = 64 << 10

// History is a replay sequence in journal form: the framed lines the
// journal holds, in order, with an advance directly after an advance
// replacing it — Coalesce, applied to the bytes. A Log keeps one of the
// frames it appends, and its checkpoints write it; a follower keeps one of
// the frames it pulled and applied, as its source held them, and a
// promotion into a fresh directory journals it. The frames live in
// fixed-size chunks, none spanning two, so growing the history never
// copies what it already holds.
//
// The zero History is empty and ready to use.
type History struct {
	chunks [][]byte // a frame never spans two; only the last has room
	ops    int      // frames held
	size   int      // bytes held
	adv    int      // 1 + offset in the last chunk of an advance a later one may replace; 0 otherwise
	enc    []byte   // Append's encode scratch
}

// Append frames r and adds it to the history.
func (h *History) Append(r Record) error {
	var err error
	if h.enc, err = appendRecord(h.enc[:0], r); err != nil {
		return err
	}
	h.add(h.enc, r.Op == OpAdvance)
	return nil
}

// AddFrame adds r as frame, the bytes a journal reader yielded for it
// (newline included), without encoding r again. A frame that is not r's
// corrupts the history.
func (h *History) AddFrame(r Record, frame []byte) { h.add(frame, r.Op == OpAdvance) }

// Len returns the number of frames the history holds.
func (h *History) Len() int { return h.ops }

// Size returns the history's length in bytes: what writing it out costs.
func (h *History) Size() int { return h.size }

// Records decodes the history, in order.
func (h *History) Records() ([]Record, error) {
	out := make([]Record, 0, h.ops)
	for _, c := range h.chunks {
		for len(c) > 0 {
			nl := bytes.IndexByte(c, '\n')
			r, err := decodeRecord(c[:nl])
			if err != nil {
				return nil, fmt.Errorf("wal: history frame %d: %w", len(out), err)
			}
			out = append(out, r)
			c = c[nl+1:]
		}
	}
	return out, nil
}

// add appends one frame (newline included). A frame the last chunk has no
// room for starts a new chunk, sized for the frame when it outgrows one.
func (h *History) add(frame []byte, advance bool) {
	last := len(h.chunks) - 1
	if advance && h.adv > 0 {
		h.size -= len(h.chunks[last]) - (h.adv - 1)
		h.chunks[last] = h.chunks[last][:h.adv-1]
	} else {
		h.ops++
	}
	if last < 0 || cap(h.chunks[last])-len(h.chunks[last]) < len(frame) {
		h.chunks = append(h.chunks, make([]byte, 0, max(histChunk, len(frame))))
		last++
	}
	h.adv = 0
	if advance {
		h.adv = len(h.chunks[last]) + 1
	}
	h.chunks[last] = append(h.chunks[last], frame...)
	h.size += len(frame)
}

// adopt starts the history from a checkpoint's op lines, which decode as
// ops. The lines become a chunk of their own, closed to appends.
func (h *History) adopt(lines []byte, ops []Record) {
	*h = History{ops: len(ops), size: len(lines)}
	if len(lines) == 0 {
		return
	}
	h.chunks = [][]byte{lines[:len(lines):len(lines)]}
	if ops[len(ops)-1].Op == OpAdvance {
		h.adv = bytes.LastIndexByte(lines[:len(lines)-1], '\n') + 2
	}
}

// seal returns the history so far, chunk by chunk, and closes it to
// coalescing: an advance added next starts a frame of its own instead of
// overwriting bytes a checkpoint write may be reading, and replaying the
// two advances is what Coalesce's contract calls equivalent to replaying
// the later one. Later adds write only past the returned slices' lengths.
func (h *History) seal() [][]byte {
	h.adv = 0
	out := make([][]byte, len(h.chunks))
	for i, c := range h.chunks {
		out[i] = c[:len(c):len(c)]
	}
	return out
}
