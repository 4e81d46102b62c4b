package wal

// The hand-written codec for Record. appendRecord writes, byte for byte,
// what json.Marshal(Record) writes, and decodeRecord parses exactly that
// canonical grammar:
//
//	{"s":N,"op":"<op>"[,"job":{"id":N,"arr":N,"rt":N,"est":N,"w":N[,"u":N]}][,"id":N][,"to":N][,"term":N]}
//
// where <op> is one of the six Op constants, N is a canonical decimal (no
// leading zero, no "-0", at most 18 digits so it cannot overflow; "s" and
// "term" unsigned) and there is no whitespace. encoding/json stays the
// reference and the fallback: a record whose Op is not a known constant is
// encoded by json.Marshal, and a CRC-valid payload outside the grammar —
// reordered or unknown keys, whitespace, escapes, longer numbers, a
// hand-edited line — is decoded by json.Unmarshal, so the set of accepted
// inputs and the verdict on every rejected one are encoding/json's.
// FuzzRecordCodec holds the pair to that.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
)

// knownOps lists the journaled mutation kinds. decodeRecord hands out these
// constants as Record.Op, so decoding an op name allocates nothing.
var knownOps = [...]string{OpAdvance, OpSubmit, OpCancel, OpDrain, OpFloor, OpTerm}

func knownOp(op string) bool {
	for _, k := range knownOps {
		if op == k {
			return true
		}
	}
	return false
}

// decodeFallbacks counts CRC-valid payloads that decodeRecord handed to
// encoding/json because they were outside the canonical grammar.
var decodeFallbacks atomic.Uint64

// DecodeFallbacks returns how many journal records this process decoded
// through encoding/json instead of the canonical-grammar parser. 0 is
// healthy; anything else is a journal written by another build or edited by
// hand — correct, but at the reflective decoder's cost.
func DecodeFallbacks() uint64 { return decodeFallbacks.Load() }

// appendRecord encodes one record as a framed line onto dst.
func appendRecord(dst []byte, r Record) ([]byte, error) {
	if !knownOp(r.Op) {
		// An arbitrary op string needs JSON escaping; no reader accepts it.
		payload, err := json.Marshal(r)
		if err != nil {
			return dst, fmt.Errorf("wal: encode record %d: %w", r.Seq, err)
		}
		return appendFramed(dst, payload), nil
	}
	start := len(dst)
	dst = beginFrame(dst)
	dst = strconv.AppendUint(append(dst, `{"s":`...), r.Seq, 10)
	dst = append(dst, `,"op":"`...)
	dst = append(dst, r.Op...)
	dst = append(dst, '"')
	if j := r.Job; j != nil {
		dst = strconv.AppendInt(append(dst, `,"job":{"id":`...), int64(j.ID), 10)
		dst = strconv.AppendInt(append(dst, `,"arr":`...), j.Arrival, 10)
		dst = strconv.AppendInt(append(dst, `,"rt":`...), j.Runtime, 10)
		dst = strconv.AppendInt(append(dst, `,"est":`...), j.Estimate, 10)
		dst = strconv.AppendInt(append(dst, `,"w":`...), int64(j.Width), 10)
		if j.User != 0 {
			dst = strconv.AppendInt(append(dst, `,"u":`...), int64(j.User), 10)
		}
		dst = append(dst, '}')
	}
	if r.ID != 0 {
		dst = strconv.AppendInt(append(dst, `,"id":`...), int64(r.ID), 10)
	}
	if r.To != 0 {
		dst = strconv.AppendInt(append(dst, `,"to":`...), r.To, 10)
	}
	if r.Term != 0 {
		dst = strconv.AppendUint(append(dst, `,"term":`...), r.Term, 10)
	}
	dst = append(dst, '}')
	return endFrame(dst, start), nil
}

// decodeRecord validates and decodes one framed journal line.
func decodeRecord(line []byte) (Record, error) {
	payload, err := unframe(line)
	if err != nil {
		return Record{}, err
	}
	if r, ok := parseCanonical(payload); ok {
		return r, nil
	}
	decodeFallbacks.Add(1)
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, fmt.Errorf("wal: bad record JSON: %w", err)
	}
	if !knownOp(r.Op) {
		return Record{}, fmt.Errorf("wal: unknown op %q at seq %d", r.Op, r.Seq)
	}
	return r, nil
}

// parseCanonical decodes p when it is in the canonical grammar and reports
// false, with no verdict on p, when it is not.
func parseCanonical(p []byte) (Record, bool) {
	c := cursor{p: p}
	var r Record
	c.want(`{"s":`)
	r.Seq = c.uint()
	c.want(`,"op":"`)
	r.Op = c.op()
	if c.has(`,"job":{"id":`) {
		j := new(JobRec)
		j.ID = c.int()
		c.want(`,"arr":`)
		j.Arrival = c.int64()
		c.want(`,"rt":`)
		j.Runtime = c.int64()
		c.want(`,"est":`)
		j.Estimate = c.int64()
		c.want(`,"w":`)
		j.Width = c.int()
		if c.has(`,"u":`) {
			j.User = c.int()
		}
		c.want(`}`)
		r.Job = j
	}
	if c.has(`,"id":`) {
		r.ID = c.int()
	}
	if c.has(`,"to":`) {
		r.To = c.int64()
	}
	if c.has(`,"term":`) {
		r.Term = c.uint()
	}
	c.want(`}`)
	return r, !c.bad && c.i == len(p)
}

// cursor reads a payload left to right. The first thing that is not in the
// grammar sets bad, after which nothing more is consumed.
type cursor struct {
	p   []byte
	i   int
	bad bool
}

// has consumes s if the unread input starts with it.
func (c *cursor) has(s string) bool {
	if c.bad || len(c.p)-c.i < len(s) || string(c.p[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// want consumes s, which the grammar requires here.
func (c *cursor) want(s string) {
	if !c.has(s) {
		c.bad = true
	}
}

// op consumes an op name and its closing quote.
func (c *cursor) op() string {
	for _, op := range knownOps {
		if c.has(op) {
			c.want(`"`)
			return op
		}
	}
	c.bad = true
	return ""
}

// maxDigits bounds a canonical number: 18 decimal digits fit every integer
// field with room to spare, so parsing needs no overflow check.
const maxDigits = 18

// uint consumes a canonical unsigned decimal.
func (c *cursor) uint() uint64 {
	if c.bad {
		return 0
	}
	start := c.i
	var v uint64
	for c.i < len(c.p) && c.p[c.i]-'0' <= 9 {
		v = v*10 + uint64(c.p[c.i]-'0')
		c.i++
	}
	n := c.i - start
	if n == 0 || n > maxDigits || n > 1 && c.p[start] == '0' {
		c.bad = true
	}
	return v
}

// int64 consumes a canonical signed decimal; "-0" is not canonical.
func (c *cursor) int64() int64 {
	neg := c.has(`-`)
	v := int64(c.uint())
	if !neg {
		return v
	}
	if v == 0 {
		c.bad = true
	}
	return -v
}

// int is int64 for a field of type int.
func (c *cursor) int() int {
	v := c.int64()
	if int64(int(v)) != v {
		c.bad = true
	}
	return int(v)
}
