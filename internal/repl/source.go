// Package repl implements WAL-shipping replication: a leader streams
// committed log records to followers, which replay them through the
// engine's page-exact redo path and serve read-only queries pinned at a
// monotonic replication watermark.
//
// The protocol rides the wire-v2 frame layer. A follower connects like any
// client (Hello/Welcome), then sends Subscribe(fromLSN) and the connection
// becomes a one-way stream: LogBatch frames carry committed commit groups
// in the WAL's stream encoding, Watermark frames carry the leader's
// appended LSN and clock (sent after every batch and as an idle
// heartbeat), and when the requested LSN has been truncated away by a
// checkpoint the leader interposes SnapshotOffer/SnapshotChunk/
// SnapshotDone — a full device copy the follower installs before the log
// stream resumes.
package repl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/wal"
	"tcodm/internal/wire"
)

// Source streams the leader's WAL to subscribed followers. One Source
// serves any number of concurrent subscriptions; each Serve call owns its
// connection for the connection's lifetime.
type Source struct {
	Engine *core.Engine

	Batch        int           // records per LogBatch (default 512)
	Heartbeat    time.Duration // idle Watermark cadence (default 500ms)
	ChunkSize    int           // snapshot chunk payload bytes (default 256 KiB)
	WriteTimeout time.Duration // per-frame write deadline (default 30s)

	// OnFenced fires when a subscriber reports an epoch higher than this
	// source's: some follower was promoted past us, so this node is an
	// ex-leader that should stop acting like one. The serving layer uses
	// it to log loudly and begin demotion.
	OnFenced func(peerEpoch uint64)

	Logf func(format string, args ...any)

	// Digest cache: the store digest is shipped on idle heartbeats so a
	// follower can verify its replayed history at promotion time without
	// a live leader to ask. Hashing the store is a full scan, so it runs
	// only once the frontier has been still for two consecutive beats and
	// is cached per frontier.
	digMu  sync.Mutex
	hbLSN  uint64 // frontier at the previous heartbeat
	digLSN uint64 // frontier the cached digest was computed at
	dig    []byte
}

func (s *Source) batch() int {
	if s.Batch > 0 {
		return s.Batch
	}
	return 512
}

func (s *Source) heartbeat() time.Duration {
	if s.Heartbeat > 0 {
		return s.Heartbeat
	}
	return 500 * time.Millisecond
}

func (s *Source) chunkSize() int {
	if s.ChunkSize > 0 {
		return s.ChunkSize
	}
	return 256 << 10
}

func (s *Source) writeTimeout() time.Duration {
	if s.WriteTimeout > 0 {
		return s.WriteTimeout
	}
	return 30 * time.Second
}

func (s *Source) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Source) writeFrame(conn net.Conn, typ byte, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
	return wire.WriteFrame(conn, typ, payload)
}

// Serve streams the log to one follower, starting at req.FromLSN, until
// the connection dies, the follower sends anything (the stream is one-way —
// inbound bytes are a protocol violation), or ctx is cancelled. An engine
// without a log (in-memory) cannot replicate; the error travels to the
// follower as an Error frame.
//
// Epoch fencing happens here, before a single record is shipped:
//
//   - A subscriber reporting a HIGHER epoch than this source means some
//     follower was promoted past us — this source is a stale ex-leader.
//     It answers with a Fence frame, fires OnFenced, and refuses to
//     serve (serving would hand out history a newer leader may have
//     superseded).
//   - A subscriber at a LOWER epoch whose history extends past this
//     epoch's start LSN is the resurrected old leader: its unshipped
//     suffix diverged from the promoted timeline, and redo — which skips
//     every page whose LSN is not older than the record — would silently
//     skip the overlap. It gets a Fence frame telling it
//     where the epochs split so it can rejoin via snapshot.
//   - A subscriber at a lower epoch whose history stops at or before the
//     epoch start is an innocent, merely-behind follower: it is served
//     normally and learns the new epoch from the OpEpoch record in the
//     stream itself.
func (s *Source) Serve(ctx context.Context, conn net.Conn, req wire.SubscribeReq) error {
	eng := s.Engine
	log := eng.Log()
	if log == nil {
		s.writeFrame(conn, wire.FrameError, wire.EncodeError(wire.CodeQuery,
			"replication requires a file-backed database", "leader runs in-memory (no log)"))
		return errors.New("repl: in-memory engine cannot replicate")
	}

	reg := eng.Metrics()
	subscribers := reg.Gauge("repl.subscribers")
	batchesSent := reg.Counter("repl.batches_sent")
	recordsSent := reg.Counter("repl.records_sent")
	snapshotsSent := reg.Counter("repl.snapshots_sent")

	srcEpoch, srcStart := eng.Epoch(), eng.EpochStart()
	if req.Epoch > srcEpoch {
		msg := fmt.Sprintf("subscriber epoch %d exceeds source epoch %d: this source is a fenced ex-leader", req.Epoch, srcEpoch)
		s.writeFrame(conn, wire.FrameFence, wire.EncodeFence(wire.Fence{Epoch: srcEpoch, EpochStart: srcStart, Msg: msg}))
		reg.Counter("repl.fences_sent").Inc()
		s.logf("repl: FENCED by subscriber %s at epoch %d (local epoch %d)", conn.RemoteAddr(), req.Epoch, srcEpoch)
		if s.OnFenced != nil {
			s.OnFenced(req.Epoch)
		}
		return fmt.Errorf("repl: %s", msg)
	}
	forceSnapshot := req.Flags&wire.SubscribeFlagSnapshot != 0
	if req.Epoch < srcEpoch && req.FromLSN > srcStart+1 && !forceSnapshot {
		msg := fmt.Sprintf("subscriber history reaches LSN %d at epoch %d, but epoch %d began at LSN %d: histories diverged, rejoin via snapshot",
			req.FromLSN-1, req.Epoch, srcEpoch, srcStart)
		s.writeFrame(conn, wire.FrameFence, wire.EncodeFence(wire.Fence{Epoch: srcEpoch, EpochStart: srcStart, Msg: msg}))
		reg.Counter("repl.fences_sent").Inc()
		s.logf("repl: fencing diverged subscriber %s (%s)", conn.RemoteAddr(), msg)
		return fmt.Errorf("repl: %s", msg)
	}

	subscribers.Add(1)
	defer subscribers.Add(-1)

	// Any inbound traffic — including EOF — ends the subscription. This is
	// also how a vanished follower is noticed while the leader is idle.
	dead := make(chan struct{})
	go func() {
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Time{})
		conn.Read(buf)
		close(dead)
	}()

	s.logf("repl: subscriber %s from LSN %d (epoch %d)", conn.RemoteAddr(), req.FromLSN, req.Epoch)
	cur := log.Cursor(req.FromLSN)
	if forceSnapshot {
		// The subscriber asked to discard its local history (fenced rejoin
		// or operator-forced resync): reseed it before any log record.
		start, serr := s.sendSnapshot(conn)
		if serr != nil {
			return serr
		}
		snapshotsSent.Inc()
		cur = log.Cursor(start)
	}
	hb := time.NewTicker(s.heartbeat())
	defer hb.Stop()
	var streamBuf []byte
	for {
		// Fetch the wake channel before reading: a commit landing between
		// the read and the select must not be sleep-missed.
		watch := log.AppendWatch()
		recs, err := cur.Read(s.batch())
		if errors.Is(err, wal.ErrGap) {
			// The follower's position has been checkpointed away; reseed it
			// with a full snapshot, then resume the stream where the
			// snapshot's log begins.
			start, serr := s.sendSnapshot(conn)
			if serr != nil {
				return serr
			}
			snapshotsSent.Inc()
			cur = log.Cursor(start)
			continue
		}
		if err != nil {
			s.writeFrame(conn, wire.FrameError, wire.EncodeError(wire.CodeQuery, "log stream failed", err.Error()))
			return err
		}
		if len(recs) > 0 {
			streamBuf = wal.AppendRecordStream(streamBuf[:0], recs)
			if err := s.writeFrame(conn, wire.FrameLogBatch, streamBuf); err != nil {
				return err
			}
			batchesSent.Inc()
			recordsSent.Add(uint64(len(recs)))
			if err := s.sendWatermark(conn, false); err != nil {
				return err
			}
			continue // drain the backlog before sleeping
		}
		select {
		case <-watch:
		case <-hb.C:
			if err := s.sendWatermark(conn, true); err != nil {
				return err
			}
		case <-dead:
			s.logf("repl: subscriber %s gone", conn.RemoteAddr())
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// sendWatermark ships the appended frontier, clock, and epoch. Heartbeat
// watermarks on a quiescent frontier additionally carry the store digest
// (see digestAt) — the follower caches it so Promote can verify its
// replayed history after the leader is gone.
func (s *Source) sendWatermark(conn net.Conn, heartbeat bool) error {
	lsn := s.Engine.Log().AppendedLSN()
	wm := wire.WatermarkInfo{LSN: lsn, Clock: uint64(s.Engine.Now()), Epoch: s.Engine.Epoch()}
	if heartbeat {
		s.digMu.Lock()
		idle := s.hbLSN == lsn
		s.hbLSN = lsn
		s.digMu.Unlock()
		if idle {
			wm.Digest = s.digestAt(lsn)
		}
	}
	return s.writeFrame(conn, wire.FrameWatermark, wire.EncodeWatermarkInfo(wm))
}

// digestAt returns the store digest at frontier lsn, computing it at most
// once per frontier. Hashing is a full logical scan, so it only runs when
// the frontier has already sat still for a whole heartbeat; if a commit
// lands mid-hash the result describes neither frontier and is discarded.
func (s *Source) digestAt(lsn uint64) []byte {
	s.digMu.Lock()
	if s.digLSN == lsn && s.dig != nil {
		d := s.dig
		s.digMu.Unlock()
		return d
	}
	s.digMu.Unlock()
	d, err := s.Engine.DigestStore()
	if err != nil || s.Engine.Log().AppendedLSN() != lsn {
		return nil
	}
	s.digMu.Lock()
	s.digLSN, s.dig = lsn, d
	s.digMu.Unlock()
	return d
}

// sendSnapshot checkpoints the engine and streams the full device:
// SnapshotOffer (start LSN + exact size), ChunkSize'd SnapshotChunk
// frames, then SnapshotDone carrying the stream's SHA-256. Returns the LSN
// the log stream resumes from.
func (s *Source) sendSnapshot(conn net.Conn) (uint64, error) {
	s.logf("repl: sending snapshot to %s", conn.RemoteAddr())
	var start uint64
	cw := &chunkWriter{src: s, conn: conn, buf: make([]byte, 0, s.chunkSize())}
	digest, err := s.Engine.Snapshot(func(lsn, size uint64) error {
		start = lsn
		return s.writeFrame(conn, wire.FrameSnapshotOffer, wire.EncodeSnapshotOffer(lsn, size))
	}, cw)
	if err != nil {
		return 0, fmt.Errorf("repl: snapshot: %w", err)
	}
	if err := cw.flush(); err != nil {
		return 0, err
	}
	if err := s.writeFrame(conn, wire.FrameSnapshotDone, wire.EncodeSnapshotDone(digest)); err != nil {
		return 0, err
	}
	return start, nil
}

// chunkWriter re-frames a byte stream into SnapshotChunk frames.
type chunkWriter struct {
	src  *Source
	conn net.Conn
	buf  []byte
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		room := cap(w.buf) - len(w.buf)
		if room == 0 {
			if err := w.flush(); err != nil {
				return 0, err
			}
			room = cap(w.buf)
		}
		if room > len(p) {
			room = len(p)
		}
		w.buf = append(w.buf, p[:room]...)
		p = p[room:]
	}
	return n, nil
}

func (w *chunkWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.src.writeFrame(w.conn, wire.FrameSnapshotChunk, w.buf)
	w.buf = w.buf[:0]
	return err
}
