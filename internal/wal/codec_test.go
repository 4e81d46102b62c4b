package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// refEncode and refDecode are the codec encoding/json defines: what
// appendRecord and decodeRecord were before they were written by hand, and
// the reference the hand-written pair is held to.
func refEncode(dst []byte, r Record) []byte {
	payload, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	return appendFramed(dst, payload)
}

func refDecode(line []byte) (Record, error) {
	payload, err := unframe(line)
	if err != nil {
		return Record{}, err
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, fmt.Errorf("wal: bad record JSON: %w", err)
	}
	switch r.Op {
	case OpSubmit, OpCancel, OpAdvance, OpDrain, OpFloor, OpTerm:
	default:
		return Record{}, fmt.Errorf("wal: unknown op %q at seq %d", r.Op, r.Seq)
	}
	return r, nil
}

// journalShapes is one record of every shape a daemon journals: what churn
// and follow write, plus the federation and failover fences.
func journalShapes() []Record {
	return []Record{
		{Op: OpAdvance, To: 86400},
		{Op: OpSubmit, Job: &JobRec{ID: 17, Arrival: 86400, Runtime: 3600, Estimate: 7200, Width: 64, User: 12}},
		{Op: OpSubmit, Job: &JobRec{ID: 18, Arrival: 86400, Runtime: 1, Estimate: 1, Width: 1}},
		{Op: OpCancel, ID: 17},
		{Op: OpFloor, ID: 4096},
		{Op: OpTerm, Term: 3},
		{Op: OpDrain},
	}
}

// checkDecode holds decodeRecord to refDecode on one framed payload: the
// same record (Job compared by value) or an error with the same text.
func checkDecode(t *testing.T, payload []byte) {
	t.Helper()
	line := appendFramed(nil, payload)
	line = line[:len(line)-1]
	got, gotErr := decodeRecord(line)
	want, wantErr := refDecode(line)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("payload %q: decodeRecord error %v, encoding/json path %v", payload, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("payload %q: decodeRecord = %+v (job %+v), encoding/json path %+v (job %+v)", payload, got, got.Job, want, want.Job)
	}
}

// FuzzRecordCodec holds the hand-written codec to encoding/json: (a) for
// arbitrary field values appendRecord writes the bytes json.Marshal would,
// and (b) for arbitrary payload bytes under a valid CRC decodeRecord returns
// what json.Unmarshal and the known-op check return, record or error text.
// Both mutations it was checked against by hand — a number parser that
// accepts a leading zero, and a parser that does not require the payload to
// end at the closing brace — fail on the seeds alone.
func FuzzRecordCodec(f *testing.F) {
	type fields struct {
		seq                  uint64
		op                   string
		job                  bool
		jid, arr, rt, est, w int64
		u, id, to            int64
		term                 uint64
	}
	values := []fields{
		{seq: 1, op: OpAdvance, to: 86400},
		{seq: 2, op: OpSubmit, job: true, jid: 17, arr: 86400, rt: 3600, est: 7200, w: 64, u: 12},
		{seq: 3, op: OpSubmit, job: true, jid: 18, arr: 0, rt: 1, est: 1, w: 1},
		{seq: 4, op: OpCancel, id: 17},
		{seq: 5, op: OpFloor, id: 4096},
		{seq: 6, op: OpTerm, term: 3},
		{seq: 7, op: OpDrain},
		{seq: 0, op: OpSubmit},
		{seq: math.MaxUint64, op: OpTerm, term: math.MaxUint64},
		{seq: 8, op: OpAdvance, to: math.MinInt64},
		{seq: 9, op: OpAdvance, to: math.MaxInt64},
		{seq: 10, op: OpSubmit, job: true, jid: -1, arr: math.MinInt64, rt: math.MaxInt64, est: -7, w: -64, u: -12, id: -5, to: -1},
		{seq: 999999999999999999, op: OpCancel, id: 999999999999999999},
		{seq: 1000000000000000000, op: OpCancel, id: -999999999999999999},
		{seq: 11, op: "compact", id: 1},
		{seq: 12, op: "sub\"mit<\xff>", job: true},
		{seq: 13, op: ""},
	}
	payloads := []string{
		// Every canonical shape.
		`{"s":1,"op":"advance","to":86400}`,
		`{"s":2,"op":"submit","job":{"id":17,"arr":86400,"rt":3600,"est":7200,"w":64,"u":12}}`,
		`{"s":3,"op":"submit","job":{"id":18,"arr":0,"rt":1,"est":1,"w":1}}`,
		`{"s":4,"op":"cancel","id":17}`,
		`{"s":5,"op":"floor","id":4096}`,
		`{"s":6,"op":"term","term":3}`,
		`{"s":7,"op":"drain"}`,
		`{"s":8,"op":"submit","job":{"id":1,"arr":2,"rt":3,"est":4,"w":5,"u":6},"id":7,"to":-8,"term":9}`,
		// Valid JSON outside the grammar.
		`{"s": 1, "op": "advance", "to": 5}`,
		` {"s":1,"op":"drain"}`,
		"{\"s\":1,\"op\":\"drain\"}\t",
		`{"op":"advance","s":1,"to":5}`,
		`{"s":1,"op":"advance","to":5,"to":6}`,
		`{"s":1,"s":2,"op":"drain"}`,
		`{"s":1,"op":"advance","to":5,"extra":true}`,
		`{"s":1,"op":"\u0061dvance","to":5}`,
		`{"\u0073":1,"op":"advance","to":5}`,
		`{"S":1,"OP":"advance","To":5}`,
		`{"s":1,"op":"cancel","id":5,"job":null}`,
		`{"s":1,"op":"submit","job":null}`,
		`{"s":1,"op":"submit","job":{}}`,
		`{"s":1,"op":"submit","job":{"id":1,"arr":2,"rt":3,"est":4}}`,
		`{"s":1,"op":"submit","job":{"id":1,"arr":2,"rt":3,"est":4,"w":5,"u":0}}`,
		`{"s":1,"op":"submit","job":{"w":5,"est":4,"rt":3,"arr":2,"id":1}}`,
		`{"s":0,"op":"drain"}`,
		`{"s":1,"op":"advance","to":0}`,
		`{"s":1,"op":"advance","to":-0}`,
		`{"s":1,"op":"advance","to":1e3}`,
		`{"s":1,"op":"advance","to":1.0}`,
		`{"s":1,"op":"advance","to":999999999999999999}`,
		`{"s":1,"op":"advance","to":-999999999999999999}`,
		`{"s":1,"op":"advance","to":1000000000000000000}`,
		`{"s":1,"op":"advance","to":9223372036854775807}`,
		`{"s":1,"op":"advance","to":-9223372036854775808}`,
		`{"s":18446744073709551615,"op":"drain"}`,
		`{"op":"drain"}`,
		`{"s":1}`,
		`{}`,
		// Not a record.
		`{"s":1,"op":"advance","to":01}`,
		`{"s":01,"op":"drain"}`,
		`{"s":-1,"op":"drain"}`,
		`{"s":1,"op":"term","term":-3}`,
		`{"s":1,"op":"advance","to":9223372036854775808}`,
		`{"s":1,"op":"advance","to":12345678901234567890}`,
		`{"s":18446744073709551616,"op":"drain"}`,
		`{"s":1,"op":"advance","to":-}`,
		`{"s":1,"op":"advance","to":}`,
		`{"s":1,"op":"advance","to":"5"}`,
		`{"s":1,"op":"drain"}}`,
		`{"s":1,"op":"drain"}x`,
		`{"s":1,"op":"drain"`,
		`{"s":1,"op":"drain",}`,
		`{"s":1,"op":"drain`,
		`{"s":1,"op":"compact","id":1}`,
		`{"s":1,"op":"terminal"}`,
		`{"s":1,"op":"","id":1}`,
		`{"s":1,"op":7}`,
		`[1]`,
		`null`,
		``,
	}
	for i := range max(len(values), len(payloads)) {
		v, p := values[i%len(values)], payloads[i%len(payloads)]
		f.Add(v.seq, v.op, v.job, v.jid, v.arr, v.rt, v.est, v.w, v.u, v.id, v.to, v.term, []byte(p))
	}
	f.Fuzz(func(t *testing.T, seq uint64, op string, hasJob bool, jid, arr, rt, est, w, u, id, to int64, term uint64, payload []byte) {
		r := Record{Seq: seq, Op: op, ID: int(id), To: to, Term: term}
		if hasJob {
			r.Job = &JobRec{ID: int(jid), Arrival: arr, Runtime: rt, Estimate: est, Width: int(w), User: int(u)}
		}
		got, err := appendRecord(nil, r)
		if err != nil {
			t.Fatalf("appendRecord(%+v): %v", r, err)
		}
		if want := refEncode(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("appendRecord(%+v, job %+v) = %q, json.Marshal gives %q", r, r.Job, got, want)
		}
		checkDecode(t, got[frameHead:len(got)-1])
		checkDecode(t, payload)
	})
}

// decodeSink keeps a decoded record reachable, so its JobRec is a real
// allocation and not one the compiler proves away.
var decodeSink Record

func TestDecodeRecordAllocs(t *testing.T) {
	for _, r := range journalShapes() {
		r.Seq = 40000
		line, err := appendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		line = line[:len(line)-1]
		want := 0.0
		if r.Job != nil {
			want = 1 // the JobRec
		}
		got := testing.AllocsPerRun(200, func() {
			var err error
			if decodeSink, err = decodeRecord(line); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("decodeRecord(%s) allocates %v times, want %v", line, got, want)
		}
	}
}

func TestAppendRecordAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	for _, r := range journalShapes() {
		r.Seq = 40000
		got := testing.AllocsPerRun(200, func() {
			var err error
			if buf, err = appendRecord(buf[:0], r); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("appendRecord(%s) into a presized buffer allocates %v times, want 0", r.Op, got)
		}
	}
}

// TestJournalsDecodeOnTheFastPath pins that nothing Log.Append or a
// checkpoint writes needs the encoding/json fallback to be read back.
func TestJournalsDecodeOnTheFastPath(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	l.SetRetainFloor(0) // keep the checkpointed segment for the Tailer
	var ops []Record
	for round := 0; round < 50; round++ {
		batch := journalShapes()
		if err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
		for _, r := range batch {
			ops = Coalesce(ops, r)
		}
	}
	if err := l.Checkpoint(Meta{SimNow: 86400, NextID: 19}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(journalShapes()); err != nil {
		t.Fatal(err)
	}
	total := int(l.Seq())

	before := DecodeFallbacks()
	st, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.CheckpointOps) != len(ops) || len(st.Tail) != len(journalShapes()) {
		t.Fatalf("Load read %d checkpoint ops and %d tail records, want %d and %d",
			len(st.CheckpointOps), len(st.Tail), len(ops), len(journalShapes()))
	}
	if recs := drainTailer(t, NewTailer(dir, 0)); len(recs) != total {
		t.Fatalf("Tailer read %d records, want %d", len(recs), total)
	}
	if got := DecodeFallbacks() - before; got != 0 {
		t.Fatalf("%d records of a journal this build wrote were decoded by encoding/json", got)
	}

	// The counter does move when a record is outside the grammar.
	checkDecode(t, []byte(`{"s":1, "op":"drain"}`))
	if got := DecodeFallbacks() - before; got != 1 {
		t.Fatalf("a payload with whitespace moved the fallback counter by %d, want 1", got)
	}
}

// crossVersionMeta and crossVersionRecords are what testdata/crossversion
// holds: a segment of pre, the checkpoint over it, a segment of post.
var crossVersionMeta = Meta{
	Config:      Config{Procs: 128, Scheduler: "easy", Policy: "FCFS", Audit: true},
	SimNow:      86400,
	NextID:      19,
	StateHash:   0xfedcba9876543210,
	Submitted:   4,
	Cancelled:   2,
	CreatedUnix: 1700000000,
}

func crossVersionRecords() (pre, post []Record) {
	pre = append(journalShapes()[:6:6],
		Record{Op: OpAdvance, To: 86401},
		Record{Op: OpAdvance, To: 86402},
		Record{Op: OpSubmit, Job: &JobRec{ID: -3, Arrival: math.MinInt64, Runtime: math.MaxInt64, Estimate: -1, Width: 0, User: -9}},
		Record{Op: OpCancel, ID: -3},
	)
	return pre, journalShapes()
}

// writeCrossVersionFixture writes the fixture's files into dir with this
// build's encoder.
func writeCrossVersionFixture(dir string) (pre, ops, post []Record, err error) {
	l, _, err := Open(dir, Options{NoLock: true})
	if err != nil {
		return nil, nil, nil, err
	}
	defer l.Close()
	l.SetRetainFloor(0)
	pre, post = crossVersionRecords()
	if err := l.Append(pre); err != nil {
		return nil, nil, nil, err
	}
	for _, r := range pre {
		ops = Coalesce(ops, r)
	}
	if err := l.Checkpoint(crossVersionMeta); err != nil {
		return nil, nil, nil, err
	}
	return pre, ops, post, l.Append(post)
}

// TestCodecCrossVersion reads a journal and checkpoint written by the
// json.Marshal encoder of the commit before the hand-written codec
// (testdata/crossversion, never regenerated) and requires the same records
// out of it and the same bytes back from this build's encoder.
func TestCodecCrossVersion(t *testing.T) {
	const fixture = "testdata/crossversion"
	fresh := t.TempDir()
	_, ops, post, err := writeCrossVersionFixture(fresh)
	if err != nil {
		t.Fatal(err)
	}

	st, err := Load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Warnings) != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("fixture loaded with warnings %q, %d torn bytes", st.Warnings, st.TruncatedBytes)
	}
	if !reflect.DeepEqual(st.CheckpointOps, ops) {
		t.Errorf("checkpoint ops = %+v, want %+v", st.CheckpointOps, ops)
	}
	if !reflect.DeepEqual(st.Tail, post) {
		t.Errorf("tail = %+v, want %+v", st.Tail, post)
	}

	// The same operations through this build's Append and Checkpoint give
	// the fixture's files, byte for byte.
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("fixture holds %d files, want two segments and a checkpoint", len(entries))
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fresh, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: this build writes\n%s\nthe fixture holds\n%s", e.Name(), got, want)
		}

		// And every frame re-encodes to itself.
		sc := NewScanner(e.Name(), want)
		var again []byte
		if _, ok := parseSeq(e.Name(), ckptPrefix, ckptSuffix); ok {
			m, err := sc.Meta()
			if err != nil {
				t.Fatal(err)
			}
			if again, err = EncodeMeta(again, m); err != nil {
				t.Fatal(err)
			}
		}
		for {
			r, _, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if again, err = appendRecord(again, r); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decoded and re-encoded gives\n%s\nwant\n%s", e.Name(), again, want)
		}
	}
}
