package replica

// A source yields the leader's journal incrementally. Two implementations:
// dirSource tails a shared journal directory with wal.Tailer (safe against
// the live appender — the WAL's single-writer framing makes a torn read
// distinguishable from corruption), and httpSource pulls the leader's
// GET /v1/wal stream. Both fall back to a full checkpoint image when the
// incremental position has been pruned.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/wal"
)

// pullResult is one replication pull: either an incremental record batch
// or a full checkpoint+tail image the replica must rebuild from (landing
// it at state.NextSeq-1), and the bytes read to get it (from the journal's
// segments, or the HTTP response body). hasMeta marks sources that report
// the leader's own position (HTTP headers); directory mode infers it from
// the records.
type pullResult struct {
	recs      []wal.Record
	state     *wal.State
	bytes     int64
	hasMeta   bool
	leaderSeq uint64
	leaderNow int64
}

type source interface {
	// pull returns records after seq `after`, at most max. An empty result
	// with nil state means caught up.
	pull(after uint64, max int) (pullResult, error)
}

// dirSource tails the leader's journal directory directly.
type dirSource struct {
	dir string
	tl  *wal.Tailer
}

func (d *dirSource) pull(after uint64, max int) (pullResult, error) {
	if d.tl == nil || d.tl.Seq() != after {
		d.tl = wal.NewTailer(d.dir, after)
	}
	read := d.tl.BytesRead()
	recs, err := d.tl.Next(max)
	read = d.tl.BytesRead() - read
	if errors.Is(err, wal.ErrGone) {
		// Our position was pruned (or the journal starts at a checkpoint):
		// load the full durable image. Load is read-only — no flock, no
		// truncation — so this is safe against the live leader.
		st, lerr := wal.Load(d.dir)
		if lerr != nil {
			return pullResult{}, lerr
		}
		d.tl = nil
		return pullResult{state: st}, nil
	}
	if err != nil {
		return pullResult{}, err
	}
	return pullResult{recs: recs, bytes: read}, nil
}

// httpSource pulls the leader's /v1/wal endpoint.
type httpSource struct {
	base string // full endpoint URL
	id   string
	addr string        // advertised read URL, registered via &addr=
	wait time.Duration // long-poll duration, 0 for immediate pulls
	c    *http.Client
}

func newHTTPSource(src, id, advertise string, wait time.Duration) *httpSource {
	base := strings.TrimSuffix(src, "/")
	// A bare daemon address gets the standard endpoint appended; a URL that
	// already carries a path (a federation shard prefix like
	// http://host/v1/shards/2) gets /wal.
	if u, err := url.Parse(base); err == nil && (u.Path == "" || u.Path == "/") {
		base += "/v1/wal"
	} else {
		base += "/wal"
	}
	// The client timeout must outlast a parked long-poll or every caught-up
	// pull would "fail" at the deadline.
	timeout := 10 * time.Second
	if wait > 0 && wait+5*time.Second > timeout {
		timeout = wait + 5*time.Second
	}
	return &httpSource{base: base, id: id, addr: advertise, wait: wait, c: &http.Client{Timeout: timeout}}
}

func (h *httpSource) pull(after uint64, max int) (pullResult, error) {
	u := fmt.Sprintf("%s?from=%d&max=%d&follower=%s", h.base, after+1, max, url.QueryEscape(h.id))
	if h.addr != "" {
		u += "&addr=" + url.QueryEscape(h.addr)
	}
	if h.wait > 0 {
		u += "&wait=" + url.QueryEscape(h.wait.String())
	}
	resp, err := h.c.Get(u)
	if err != nil {
		return pullResult{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return pullResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return pullResult{}, fmt.Errorf("replica: leader %s: %s: %s", h.base, resp.Status, bytes.TrimSpace(body))
	}
	res := pullResult{hasMeta: true, bytes: int64(len(body))}
	res.leaderSeq, _ = strconv.ParseUint(resp.Header.Get("X-Schedd-Seq"), 10, 64)
	res.leaderNow, _ = strconv.ParseInt(resp.Header.Get("X-Schedd-Now"), 10, 64)
	sc := wal.NewScanner("leader "+h.base, body)
	if resp.Header.Get("X-Schedd-Resync") == "1" {
		if res.state, err = decodeResync(sc); err != nil {
			return pullResult{}, err
		}
		return res, nil
	}
	if n := bytes.Count(body, []byte{'\n'}); n > 0 {
		res.recs = make([]wal.Record, 0, n) // one frame per line
	}
	for {
		rec, _, err := sc.Next()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return pullResult{}, fmt.Errorf("replica: leader %s sent a bad frame: %w", h.base, err)
		}
		res.recs = append(res.recs, rec)
	}
}

// decodeResync parses a full-resync body: one checkpoint meta line, then
// the checkpoint's compacted ops and the journal tail, all CRC-framed.
func decodeResync(sc *wal.Scanner) (*wal.State, error) {
	m, err := sc.Meta()
	if err != nil {
		return nil, fmt.Errorf("replica: bad resync meta: %w", err)
	}
	st := &wal.State{Checkpoint: &m, NextSeq: m.Seq + 1}
	for {
		rec, _, err := sc.Next()
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return nil, fmt.Errorf("replica: bad resync frame: %w", err)
		}
		if rec.Seq <= m.Seq {
			st.CheckpointOps = append(st.CheckpointOps, rec)
		} else {
			st.Tail = append(st.Tail, rec)
			st.NextSeq = rec.Seq + 1
		}
	}
}
