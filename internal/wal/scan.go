package wal

// The one frame scanner under every journal reader: the Tailer (from a file
// offset, in bounded chunks), recovery's segment and checkpoint readers, and
// the replica's parsers of /v1/wal bodies (over bytes already in memory).
// It splits a byte stream into newline-terminated frames, validates each
// (CRC, JSON, known op, sequence order) and yields the record together with
// the raw frame, so a shipper forwards the bytes Append wrote instead of
// re-encoding what it decoded.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// scanChunk is the scanner's read size against a file: a pull costs one
// chunk beyond the bytes it returns, however long the segment is.
const scanChunk = 32 << 10

// errTorn marks input that ends in an incomplete or undecodable frame with
// no valid record after it: an append caught mid-frame or a crash's torn
// tail in a live segment, plain damage anywhere else.
var errTorn = errors.New("wal: torn final frame")

// Scanner iterates the frames of one segment, checkpoint or /v1/wal body.
type Scanner struct {
	name string      // what is being read, for error messages
	src  io.ReaderAt // nil: buf already holds the whole input
	buf  []byte      // window onto the input; buf[pos:] is unread
	base int64       // input offset of buf[0]
	pos  int
	eof  bool   // nothing past buf is left to read
	off  int64  // input offset just past the last frame yielded: where a torn tail starts
	read int64  // bytes fetched from src
	last uint64 // seq of the last record yielded
	gaps bool   // a checkpoint image: coalesced ops leave seq gaps
}

// NewScanner scans data, a complete in-memory input; name labels it in
// error messages.
func NewScanner(name string, data []byte) *Scanner {
	return &Scanner{name: name, buf: data, eof: true}
}

// line returns the next complete line, newline included. It is valid until
// the following call. io.EOF means the input ended on a frame boundary,
// errTorn that it ended inside a frame.
func (s *Scanner) line() ([]byte, error) {
	for {
		if nl := bytes.IndexByte(s.buf[s.pos:], '\n'); nl >= 0 {
			line := s.buf[s.pos : s.pos+nl+1]
			s.pos += nl + 1
			return line, nil
		}
		if s.eof {
			if s.pos == len(s.buf) {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("%w: %s ends mid-frame at byte %d", errTorn, s.name, s.base+int64(s.pos))
		}
		if err := s.fill(); err != nil {
			return nil, err
		}
	}
}

// fill slides the unread bytes to the front of the window and reads on
// from src behind them, doubling the window when one frame fills it.
func (s *Scanner) fill() error {
	n := copy(s.buf, s.buf[s.pos:])
	s.base += int64(s.pos)
	s.pos = 0
	if n == cap(s.buf) {
		grown := make([]byte, n, max(2*n, scanChunk))
		copy(grown, s.buf[:n])
		s.buf = grown
	}
	m, err := s.src.ReadAt(s.buf[n:cap(s.buf)], s.base+int64(n))
	s.buf = s.buf[:n+m]
	s.read += int64(m)
	if err == io.EOF {
		s.eof = true
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: read %s: %w", s.name, err)
	}
	return nil
}

// Next returns the next record and its raw frame (newline included, valid
// until the following call). io.EOF means the input ended cleanly. An
// undecodable frame is ErrCorrupt when any valid record follows it, and a
// torn tail otherwise; the look-ahead that tells them apart runs only on
// such a failure. A record out of sequence is ErrCorrupt.
func (s *Scanner) Next() (Record, []byte, error) {
	line, err := s.line()
	if err != nil {
		return Record{}, nil, err
	}
	r, decErr := decodeRecord(line[:len(line)-1])
	if decErr != nil {
		at := s.base + int64(s.pos-len(line))
		valid, err := s.anyValid()
		if err != nil {
			return Record{}, nil, err
		}
		if valid {
			return Record{}, nil, fmt.Errorf("%w: %s at byte %d: %v", ErrCorrupt, s.name, at, decErr)
		}
		return Record{}, nil, fmt.Errorf("%w: %s at byte %d: %v", errTorn, s.name, at, decErr)
	}
	if s.gaps && r.Seq <= s.last || !s.gaps && s.last != 0 && r.Seq != s.last+1 {
		return Record{}, nil, fmt.Errorf("%w: %s jumps from seq %d to %d", ErrCorrupt, s.name, s.last, r.Seq)
	}
	s.last = r.Seq
	s.off = s.base + int64(s.pos)
	return r, line, nil
}

// anyValid consumes the rest of the input and reports whether it holds at
// least one decodable record — the discriminator between a torn tail
// (nothing valid after the damage; truncate or wait) and mid-file
// corruption (valid data after the damage; fail loudly rather than drop
// acknowledged writes).
func (s *Scanner) anyValid() (bool, error) {
	for {
		line, err := s.line()
		if err == io.EOF {
			return false, nil
		}
		if errors.Is(err, errTorn) {
			// A record whole but for its newline is still valid data.
			_, err := decodeRecord(s.buf[s.pos:])
			return err == nil, nil
		}
		if err != nil {
			return false, err
		}
		if _, err := decodeRecord(line[:len(line)-1]); err == nil {
			return true, nil
		}
	}
}

// Meta reads the next frame as a checkpoint header — the first line of a
// checkpoint file or of a full-resync body. The ops that follow a header
// are a compacted prefix, so from here on sequence numbers need only rise.
func (s *Scanner) Meta() (Meta, error) {
	line, err := s.line()
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("wal: %s is empty", s.name)
		}
		return Meta{}, err
	}
	s.gaps = true
	m, err := DecodeMeta(line[:len(line)-1])
	if err != nil {
		return Meta{}, fmt.Errorf("%s: %w", s.name, err)
	}
	return m, nil
}
