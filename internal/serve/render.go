package serve

// The hand-written encoder for the read surface. appendJobView writes, byte
// for byte, what encoding/json writes for a JobView,
//
//	{"id":N,"state":S,"width":N,"runtime":N,"estimate":N,"arrival":N,"category":S[,"start":N][,"end":N][,"predicted_start":N][,"slowdown":F]}
//
// and appendQueue the GET /v1/queue body around it,
//
//	{"version":N,"now":N,"scheduler":S,"procs":N,"procs_busy":N,"submitted":N,"pending":N,"queued":L,"running":L,"completed":N,"cancelled":N}
//
// where N is a decimal integer, L is null for no jobs and [view,…]
// otherwise, F is a float by encoding/json's rule (appendFloat) and S a
// quoted string (appendString). encoding/json stays the reference and the
// fallback, the way it does under the journal codec (internal/wal/codec.go):
// the encoder never disagrees with it, it only declines. A string that needs
// any escaping is handed to json.Marshal by itself, and a value holding a
// non-finite float — which encoding/json refuses — is declined whole, so its
// caller gets encoding/json's verdict on it. FuzzViewCodec and
// TestReadBodiesMatchEncodingJSON hold the pair to that.

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sched"
)

// renderBuf lends the scratch a body is encoded into before it is written
// out or copied to its exact length: a buffer handed to an io.Writer
// escapes, so without it every rendered JobView would cost an allocation.
var renderBuf = sync.Pool{New: func() any { return new([]byte) }}

// appendJobView appends v's JSON encoding to dst. ok is false when the
// encoder declines; dst then ends in a partial value the caller discards.
func appendJobView(dst []byte, v *JobView) (_ []byte, ok bool) {
	dst = strconv.AppendInt(append(dst, `{"id":`...), int64(v.ID), 10)
	dst = appendString(append(dst, `,"state":`...), v.State)
	dst = strconv.AppendInt(append(dst, `,"width":`...), int64(v.Width), 10)
	dst = strconv.AppendInt(append(dst, `,"runtime":`...), v.Runtime, 10)
	dst = strconv.AppendInt(append(dst, `,"estimate":`...), v.Estimate, 10)
	dst = strconv.AppendInt(append(dst, `,"arrival":`...), v.Arrival, 10)
	dst = appendString(append(dst, `,"category":`...), v.Category)
	if v.Start != nil {
		dst = strconv.AppendInt(append(dst, `,"start":`...), *v.Start, 10)
	}
	if v.End != nil {
		dst = strconv.AppendInt(append(dst, `,"end":`...), *v.End, 10)
	}
	if v.PredictedStart != nil {
		dst = strconv.AppendInt(append(dst, `,"predicted_start":`...), *v.PredictedStart, 10)
	}
	if v.Slowdown != nil {
		if dst, ok = appendFloat(append(dst, `,"slowdown":`...), *v.Slowdown); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// appendQueue appends the GET /v1/queue body for snap, less its trailing
// newline, straight from the snapshot: the waiting jobs in policy order,
// each view read in place from the index with its prediction attached on
// the way through. It writes what json.Marshal(queueResponse(snap, pred))
// does without building the QueueResponse, or declines as appendJobView.
func appendQueue(dst []byte, snap *Snapshot, pred *forecastPred) (_ []byte, ok bool) {
	dst = strconv.AppendUint(append(dst, `{"version":`...), snap.Version, 10)
	dst = strconv.AppendInt(append(dst, `,"now":`...), snap.Now, 10)
	dst = appendString(append(dst, `,"scheduler":`...), snap.Scheduler)
	dst = strconv.AppendInt(append(dst, `,"procs":`...), int64(snap.Procs), 10)
	dst = strconv.AppendInt(append(dst, `,"procs_busy":`...), int64(snap.ProcsBusy), 10)
	dst = strconv.AppendInt(append(dst, `,"submitted":`...), snap.Submitted, 10)
	dst = strconv.AppendInt(append(dst, `,"pending":`...), int64(snap.Pending), 10)

	dst = append(dst, `,"queued":`...)
	sep := byte('[')
	for _, j := range sched.SortedByPolicy(snap.FQueued, snap.pol, snap.SimNow) {
		p, found := snap.Jobs.views.get(j.ID)
		if !found {
			continue
		}
		v := *p
		if t, has := pred.get(v.ID); has {
			v.PredictedStart = &t
		}
		if dst, ok = appendJobView(append(dst, sep), &v); !ok {
			return dst, false
		}
		sep = ','
	}
	dst = append(endList(dst, sep), `,"running":`...)
	sep = '['
	for i := range snap.Running {
		if dst, ok = appendJobView(append(dst, sep), &snap.Running[i]); !ok {
			return dst, false
		}
		sep = ','
	}
	dst = endList(dst, sep)

	dst = strconv.AppendInt(append(dst, `,"completed":`...), snap.Completed, 10)
	dst = strconv.AppendInt(append(dst, `,"cancelled":`...), snap.Cancelled, 10)
	return append(dst, '}'), true
}

// endList closes a list whose elements were each written behind sep, '['
// for the first: null when there was none, which is how encoding/json
// writes the nil slice an empty queue or running set is.
func endList(dst []byte, sep byte) []byte {
	if sep == '[' {
		return append(dst, "null"...)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string. Printable ASCII other than the
// five bytes encoding/json escapes (two for JSON, three for HTML) is copied
// between quotes; any other string is json.Marshal's to write.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ', c > '~', c == '"', c == '\\', c == '<', c == '>', c == '&':
			// The clone is what goes into Marshal's interface argument, so
			// that s, and with it every view and prediction a caller renders
			// from its stack, does not escape.
			b, err := json.Marshal(strings.Clone(s))
			if err != nil {
				// Marshal replaces invalid UTF-8; it cannot fail on a string.
				panic("serve: marshal string: " + err.Error())
			}
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendFloat appends f the way encoding/json does: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 with a
// two-digit negative exponent's leading zero dropped. A non-finite f, which
// encoding/json reports as an error, is declined.
func appendFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}
