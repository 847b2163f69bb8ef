package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"

	"noblsm/internal/engine"
	"noblsm/internal/server/wire"
	"noblsm/internal/vclock"
)

// Response-size guards. A MULTIGET over a huge batch or a SCAN over
// large values could otherwise build a response the peer's own
// MaxFrameBody check would reject; the server refuses (MULTIGET) or
// truncates at a frame-sized budget (SCAN, which is explicitly a
// bounded-window primitive) instead of producing unreadable frames.
const (
	// MaxMultiGetKeys caps one MULTIGET batch.
	MaxMultiGetKeys = 4096
	// maxScanBytes bounds a SCAN response's key+value payload.
	maxScanBytes = 4 << 20
)

// conn is one connection's handler state: buffered reader/writer,
// a reusable frame-body buffer, a reusable response buffer, and one
// lazily created virtual timeline per shard (timelines are
// single-goroutine objects; sharing one across shards would let an
// idle shard inherit a busy shard's clock and inflate its latencies).
type conn struct {
	s   *Server
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte // frame-body read buffer, reused across frames
	out []byte // response build buffer, reused across requests
	tls []*vclock.Timeline
}

// timeline returns this connection's clock for shard i, created at the
// shard's current high-water mark on first use.
func (cn *conn) timeline(i int) *vclock.Timeline {
	if cn.tls[i] == nil {
		cn.tls[i] = vclock.NewTimeline(cn.s.shards[i].vnow())
	}
	return cn.tls[i]
}

// handleConn runs one connection's pipeline: read a frame, execute,
// append the response, and flush only when the read side has no
// buffered frames — so a burst of pipelined requests is answered with
// one write, and a lone request is answered immediately.
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.open.Add(-1)
		s.wg.Done()
	}()
	cn := &conn{
		s:   s,
		c:   c,
		br:  bufio.NewReaderSize(c, 64<<10),
		bw:  bufio.NewWriterSize(c, 64<<10),
		tls: make([]*vclock.Timeline, len(s.shards)),
	}
	for {
		fr, buf, err := wire.ReadFrame(cn.br, cn.buf)
		if err != nil && !errors.Is(err, wire.ErrBadOp) {
			// Clean EOF is the normal goodbye; a torn frame or an
			// oversized length ends the connection. Framing is
			// unrecoverable mid-stream: after a bad length there is no
			// way to find the next frame boundary, so close rather than
			// guess. An unknown opcode arrives as a whole frame and is
			// answered below, by ParseRequest's verdict on it.
			if !isCleanEOF(err) {
				s.malformed.Inc()
			}
			return
		}
		cn.buf = buf
		s.frames.Inc()
		cn.out = cn.out[:0]
		req, perr := wire.ParseRequest(fr)
		if perr != nil {
			// The frame boundary itself was sound, so the stream is
			// still in sync: report the bad body and keep serving.
			s.malformed.Inc()
			cn.out = wire.AppendStatusResponse(cn.out, fr.Op, fr.ID, wire.StatusErr, perr.Error())
		} else {
			cn.out = cn.dispatch(req, cn.out)
		}
		if _, err := cn.bw.Write(cn.out); err != nil {
			return
		}
		if cn.br.Buffered() == 0 {
			if err := cn.bw.Flush(); err != nil {
				return
			}
		}
	}
}

// isCleanEOF reports whether err is an expected way for a stream to
// end: EOF exactly at a frame boundary, or the socket dying under the
// reader (peer reset, server Close). ReadFrame maps mid-frame EOF to
// io.ErrUnexpectedEOF, which is NOT clean — that peer sent a torn
// frame. A transport-level error is a disconnect, not a protocol
// violation, so it doesn't count as malformed either.
func isCleanEOF(err error) bool {
	if err == io.EOF || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// dispatch executes one request and appends its response frame to out.
func (cn *conn) dispatch(req wire.Request, out []byte) []byte {
	switch req.Op {
	case wire.OpGet:
		return cn.doGet(req, out)
	case wire.OpPut:
		return cn.doPut(req, out)
	case wire.OpDelete:
		return cn.doDelete(req, out)
	case wire.OpMultiGet:
		return cn.doMultiGet(req, out)
	case wire.OpScan:
		return cn.doScan(req, out)
	case wire.OpStats:
		return wire.AppendStatsResponse(out, req.ID, cn.s.statsJSON())
	default:
		return wire.AppendStatusResponse(out, req.Op, req.ID, wire.StatusErr, "unhandled op")
	}
}

// withShard runs fn against the shard owning the request key, holding
// the shard's admin lock shared, with this connection's timeline for
// that shard. It returns false (and appends a StatusShardClosed
// response) when the shard is administratively closed.
func (cn *conn) withShard(si int, op wire.Op, id uint64, out *[]byte, fn func(db *engine.DB, tl *vclock.Timeline)) bool {
	sh := cn.s.shards[si]
	sh.mu.RLock()
	db := sh.db
	if db == nil {
		sh.mu.RUnlock()
		*out = wire.AppendStatusResponse(*out, op, id, wire.StatusShardClosed,
			fmt.Sprintf("shard %d closed", si))
		return false
	}
	tl := cn.timeline(si)
	// The shard may have advanced (another connection, a background
	// compaction) since this timeline last ran; catching it up models
	// real wall-clock passing between this client's requests.
	tl.WaitUntil(sh.vnow())
	start := tl.Now()
	fn(db, tl)
	sh.finishOp(start, tl.Now())
	sh.mu.RUnlock()
	return true
}

func (cn *conn) doGet(req wire.Request, out []byte) []byte {
	si := cn.s.ring.Shard(req.Key)
	cn.withShard(si, wire.OpGet, req.ID, &out, func(db *engine.DB, tl *vclock.Timeline) {
		v, err := db.Get(tl, req.Key)
		switch {
		case err == nil:
			out = wire.AppendGetResponse(out, req.ID, v)
		case errors.Is(err, engine.ErrNotFound):
			out = wire.AppendStatusResponse(out, wire.OpGet, req.ID, wire.StatusNotFound, "")
		default:
			out = wire.AppendStatusResponse(out, wire.OpGet, req.ID, wire.StatusErr, err.Error())
		}
	})
	return out
}

// putStatus maps a write error to its wire status: a shed write
// (ErrWriteStalled from the shard's admission governor) is retryable
// and gets StatusBusy so clients back off instead of treating it as a
// hard failure; anything else is StatusErr.
func putStatus(err error) wire.Status {
	if errors.Is(err, engine.ErrWriteStalled) {
		return wire.StatusBusy
	}
	return wire.StatusErr
}

func (cn *conn) doPut(req wire.Request, out []byte) []byte {
	si := cn.s.ring.Shard(req.Key)
	cn.withShard(si, wire.OpPut, req.ID, &out, func(db *engine.DB, tl *vclock.Timeline) {
		if err := db.Put(tl, req.Key, req.Value); err != nil {
			out = wire.AppendStatusResponse(out, wire.OpPut, req.ID, putStatus(err), err.Error())
		} else {
			out = wire.AppendStatusResponse(out, wire.OpPut, req.ID, wire.StatusOK, "")
		}
	})
	return out
}

func (cn *conn) doDelete(req wire.Request, out []byte) []byte {
	si := cn.s.ring.Shard(req.Key)
	cn.withShard(si, wire.OpDelete, req.ID, &out, func(db *engine.DB, tl *vclock.Timeline) {
		if err := db.Delete(tl, req.Key); err != nil {
			out = wire.AppendStatusResponse(out, wire.OpDelete, req.ID, putStatus(err), err.Error())
		} else {
			out = wire.AppendStatusResponse(out, wire.OpDelete, req.ID, wire.StatusOK, "")
		}
	})
	return out
}

// doMultiGet scatters the batch by hash, runs each shard's slice
// through DB.MultiGet (one seqnum snapshot, per-table batching — the
// PR 7 read path), and gathers results back into request order.
func (cn *conn) doMultiGet(req wire.Request, out []byte) []byte {
	if len(req.Keys) > MaxMultiGetKeys {
		return wire.AppendStatusResponse(out, wire.OpMultiGet, req.ID, wire.StatusErr,
			fmt.Sprintf("multiget batch %d exceeds max %d", len(req.Keys), MaxMultiGetKeys))
	}
	// Scatter: per-shard key slices, remembering each key's original
	// slot so the gather can restore request order.
	groups := make(map[int][]int)
	for i, k := range req.Keys {
		si := cn.s.ring.Shard(k)
		groups[si] = append(groups[si], i)
	}
	entries := make([]wire.MultiGetEntry, len(req.Keys))
	size := 0
	for si, idxs := range groups {
		keys := make([][]byte, len(idxs))
		for j, i := range idxs {
			keys[j] = req.Keys[i]
		}
		var vals [][]byte
		var errs []error
		ok := cn.withShard(si, wire.OpMultiGet, req.ID, &out, func(db *engine.DB, tl *vclock.Timeline) {
			vals, errs = db.MultiGet(tl, keys)
		})
		if !ok {
			// withShard already appended StatusShardClosed for the whole
			// frame; a partial MULTIGET result would be ambiguous.
			return out
		}
		for j, i := range idxs {
			switch {
			case errs[j] == nil:
				entries[i] = wire.MultiGetEntry{Found: true, Value: vals[j]}
				size += len(vals[j])
			case errors.Is(errs[j], engine.ErrNotFound):
				entries[i] = wire.MultiGetEntry{}
			default:
				return wire.AppendStatusResponse(out, wire.OpMultiGet, req.ID, wire.StatusErr, errs[j].Error())
			}
		}
	}
	if size > wire.MaxFrameBody-(len(entries)*16+64) {
		return wire.AppendStatusResponse(out, wire.OpMultiGet, req.ID, wire.StatusErr,
			"multiget response exceeds frame limit")
	}
	return wire.AppendMultiGetResponse(out, req.ID, entries)
}

// doScan reads up to Limit pairs from one explicit shard starting at
// Start. Scans are shard-local by design: a global ordered scan over a
// hashed keyspace is meaningless, so the client iterates shards and
// merges if it wants everything.
func (cn *conn) doScan(req wire.Request, out []byte) []byte {
	if int(req.Shard) >= len(cn.s.shards) {
		return wire.AppendStatusResponse(out, wire.OpScan, req.ID, wire.StatusErr,
			fmt.Sprintf("scan shard %d out of range (%d shards)", req.Shard, len(cn.s.shards)))
	}
	var pairs []wire.KV
	var scanErr error
	ok := cn.withShard(int(req.Shard), wire.OpScan, req.ID, &out, func(db *engine.DB, tl *vclock.Timeline) {
		it, err := db.NewIterator(tl)
		if err != nil {
			scanErr = err
			return
		}
		defer it.Close()
		if len(req.Start) == 0 {
			it.First()
		} else {
			it.Seek(req.Start)
		}
		bytes := 0
		for ; it.Valid() && uint32(len(pairs)) < req.Limit; it.Next() {
			k := append([]byte(nil), it.Key()...)
			v := append([]byte(nil), it.Value()...)
			pairs = append(pairs, wire.KV{Key: k, Value: v})
			bytes += len(k) + len(v)
			if bytes > maxScanBytes {
				break
			}
		}
		scanErr = it.Err()
	})
	if !ok {
		return out
	}
	if scanErr != nil {
		return wire.AppendStatusResponse(out, wire.OpScan, req.ID, wire.StatusErr, scanErr.Error())
	}
	return wire.AppendScanResponse(out, req.ID, pairs)
}
