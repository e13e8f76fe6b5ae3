package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/query"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/wire"
)

// session is one client connection. All session state is owned by the
// serve goroutine; only busy/drainAfter are shared with the drain path.
type session struct {
	s    *Server
	id   uint64
	conn net.Conn
	br   *bufio.Reader
	// bw holds the reply to the frame being handled; serve flushes it
	// once per frame, so a small reply is one network write.
	bw *bufio.Writer

	// Time-slice defaults applied when a query names no AT/ASOF point.
	vt *temporal.Instant
	tt *temporal.Instant
	// pinned is the "begin" read view: transaction time frozen at the
	// pin, overriding tt until "end". Queries repeat exactly.
	pinned *temporal.Instant

	timeout  time.Duration // per-query cap (intersected with cfg.QueryTimeout)
	slow     time.Duration // per-session slow-log threshold
	batch    int           // rows per ResultRows frame
	maxStale time.Duration // replica staleness bound; queries beyond it get CodeStale

	muState    chan struct{} // 1-token mutex; select-free hand-rolled to keep drain lock tiny
	busy       bool
	drainAfter bool
	// subscriber marks a connection handed to the replication source: it
	// never returns to the frame loop, so drain must close it outright
	// instead of waiting for the "current frame" to finish.
	subscriber bool

	deadlineErrLogged bool // first SetDeadline failure logged; the rest just count
}

func newSession(s *Server, id uint64, conn net.Conn) *session {
	ss := &session{s: s, id: id, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), batch: s.cfg.BatchRows, muState: make(chan struct{}, 1)}
	ss.muState <- struct{}{}
	return ss
}

func (ss *session) lock()   { <-ss.muState }
func (ss *session) unlock() { ss.muState <- struct{}{} }

// drain stops the session: an idle session is disconnected immediately, a
// busy one finishes the frame it is executing and then exits.
func (ss *session) drain() {
	ss.lock()
	ss.drainAfter = true
	disconnect := !ss.busy || ss.subscriber
	ss.unlock()
	if disconnect {
		ss.conn.Close()
	}
}

func (ss *session) beginFrame() {
	ss.lock()
	ss.busy = true
	ss.unlock()
}

// endFrame reports whether the session should stop reading further frames.
func (ss *session) endFrame() bool {
	ss.lock()
	ss.busy = false
	stop := ss.drainAfter
	ss.unlock()
	return stop
}

// serve runs the session loop until the client closes, a protocol error
// occurs, or the server drains. The reply to each frame is flushed before
// the next frame is read and before the session ends.
func (ss *session) serve(ctx context.Context) {
	defer ss.conn.Close()
	defer ss.flush() // before the Close above; the session ends either way

	// Handshake: Hello in, Welcome out.
	f, err := ss.readFrame()
	if err != nil {
		return
	}
	if f.Type != wire.FrameHello {
		ss.writeError(wire.CodeProtocol, "expected Hello frame", fmt.Sprintf("got frame type 0x%02x", f.Type))
		return
	}
	if _, err := wire.DecodeHello(f.Payload); err != nil {
		ss.writeError(wire.CodeProtocol, "malformed Hello", err.Error())
		return
	}
	eng := ss.s.engine()
	if err := ss.writeFrame(wire.FrameWelcome, wire.EncodeWelcomeInfo(wire.WelcomeInfo{
		Banner:  ss.s.cfg.Banner,
		Session: ss.id,
		Epoch:   eng.Epoch(),
		// Writable tells failover probes whether this node accepts
		// leader-targeted traffic; a follower or read-only engine does not.
		Writable: !eng.IsReadOnly(),
	})); err != nil || ss.flush() != nil {
		return
	}

	for {
		f, err := ss.readFrame()
		if err != nil {
			// Version mismatches deserve a reply; everything else is a
			// dead or misbehaving transport.
			if f.Version != 0 && f.Version != wire.Version {
				ss.writeError(wire.CodeVersion, "unsupported protocol version", err.Error())
			}
			return
		}
		ss.s.frames.Inc()
		ss.beginFrame()
		stop := ss.handle(ctx, f)
		// Flush before endFrame: a drain that finds the session idle
		// finds its reply already sent.
		if ss.flush() != nil {
			stop = true
		}
		if ss.endFrame() || stop {
			return
		}
	}
}

// handle processes one frame, returning true when the session must end.
func (ss *session) handle(ctx context.Context, f wire.Frame) bool {
	switch f.Type {
	case wire.FrameQuery:
		text, trace, err := wire.DecodeQueryTrace(f.Payload)
		if err != nil {
			ss.writeError(wire.CodeProtocol, "malformed Query", err.Error())
			return true
		}
		return ss.runQuery(ctx, text, nil, trace)
	case wire.FrameExec:
		text, params, trace, err := wire.DecodeExecTrace(f.Payload)
		if err != nil {
			ss.writeError(wire.CodeProtocol, "malformed Exec", err.Error())
			return true
		}
		// A bad binding is a query error, not a protocol violation: the
		// engine refuses it and the session stays usable.
		return ss.runQuery(ctx, text, params, trace)
	case wire.FrameOption:
		key, val, err := wire.DecodeOption(f.Payload)
		if err != nil {
			ss.writeError(wire.CodeProtocol, "malformed Option", err.Error())
			return true
		}
		ack, err := ss.setOption(key, val)
		if err != nil {
			ss.writeError(wire.CodeQuery, err.Error(), "")
			return false
		}
		return ss.writeFrame(wire.FrameAck, wire.EncodeAck(ack)) != nil
	case wire.FramePing:
		return ss.writeFrame(wire.FramePong, f.Payload) != nil
	case wire.FrameSubscribe:
		req, err := wire.DecodeSubscribeReq(f.Payload)
		if err != nil {
			ss.writeError(wire.CodeProtocol, "malformed Subscribe", err.Error())
			return true
		}
		src := ss.s.replSource()
		if src == nil {
			ss.writeError(wire.CodeQuery, "replication not enabled on this server", "")
			return true
		}
		// The connection becomes a one-way log stream owned by the
		// replication source; it never returns to the session loop.
		if ss.flush() != nil {
			return true
		}
		ss.lock()
		ss.subscriber = true
		ss.unlock()
		src.Serve(ctx, ss.conn, req)
		return true
	case wire.FrameAdmin:
		cmd, err := wire.DecodeAdmin(f.Payload)
		if err != nil {
			ss.writeError(wire.CodeProtocol, "malformed Admin", err.Error())
			return true
		}
		if ss.s.cfg.Admin == nil {
			ss.writeError(wire.CodeQuery, "admin commands not enabled on this server", "")
			return false
		}
		result, err := ss.s.cfg.Admin(cmd)
		if err != nil {
			ss.writeError(wire.CodeQuery, err.Error(), "")
			return false
		}
		return ss.writeFrame(wire.FrameAck, wire.EncodeAck(result)) != nil
	case wire.FrameClose:
		return true
	default:
		ss.writeError(wire.CodeProtocol, "unexpected frame", fmt.Sprintf("type 0x%02x", f.Type))
		return true
	}
}

// setOption applies one session option and returns the effective value.
func (ss *session) setOption(key, val string) (string, error) {
	switch key {
	case "vt":
		return setInstant(&ss.vt, val)
	case "tt", "asof":
		return setInstant(&ss.tt, val)
	case "timeout":
		if val == "" || val == "0" {
			ss.timeout = 0
			return "0s", nil
		}
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return "", fmt.Errorf("option timeout: want a duration like 250ms, got %q", val)
		}
		ss.timeout = d
		return d.String(), nil
	case "slow":
		if val == "" || val == "0" {
			ss.slow = 0
			return "0s", nil
		}
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return "", fmt.Errorf("option slow: want a duration like 10ms, got %q", val)
		}
		ss.slow = d
		return d.String(), nil
	case "batch":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 || n > 1<<16 {
			return "", fmt.Errorf("option batch: want 1..65536, got %q", val)
		}
		ss.batch = n
		return strconv.Itoa(n), nil
	case "max_staleness":
		// Replica-only freshness bound: a query on a session with this set
		// is refused with CodeStale when the replica has not heard a
		// caught-up heartbeat within the bound — the client falls back to
		// the leader instead of reading arbitrarily old state.
		if ss.s.stalenessFn() == nil {
			return "", fmt.Errorf("option max_staleness: this server is not a replica")
		}
		if val == "" || val == "0" {
			ss.maxStale = 0
			return "0s", nil
		}
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return "", fmt.Errorf("option max_staleness: want a duration like 500ms, got %q", val)
		}
		ss.maxStale = d
		return d.String(), nil
	case "begin":
		// Pin the read view at the engine's current transaction time.
		// Until "end", every statement sees this exact snapshot.
		now := ss.s.engine().Now()
		ss.pinned = &now
		return strconv.FormatInt(int64(now), 10), nil
	case "end":
		ss.pinned = nil
		return "ok", nil
	default:
		return "", fmt.Errorf("unknown session option %q", key)
	}
}

// setInstant parses val into *dst; empty clears the default.
func setInstant(dst **temporal.Instant, val string) (string, error) {
	if val == "" || val == "default" {
		*dst = nil
		return "default", nil
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return "", fmt.Errorf("want an instant (integer) or \"default\", got %q", val)
	}
	t := temporal.Instant(n)
	*dst = &t
	return strconv.FormatInt(n, 10), nil
}

// queryTimeout intersects the session timeout with the server-wide cap.
func (ss *session) queryTimeout() time.Duration {
	d := ss.timeout
	if cap := ss.s.cfg.QueryTimeout; cap > 0 && (d == 0 || d > cap) {
		d = cap
	}
	return d
}

// runQuery executes text with params bound into its $n slots and streams
// the result, returning true when the session must end (transport
// failure). trace is the client-stamped trace id (0 = unstamped; the
// server allocates one when tracing is enabled).
func (ss *session) runQuery(ctx context.Context, text string, params []value.V, trace uint64) bool {
	ss.s.queries.Inc()
	// One engine pointer for the whole statement: a replica re-bootstrap
	// swapping the engine mid-query turns into a plain error on the old
	// (closed) engine, never a half-old half-new answer.
	eng := ss.s.engine()
	if stale := ss.s.stalenessFn(); ss.maxStale > 0 && stale != nil {
		// Strictly-greater: a replica lagging exactly the bound is served.
		if lag := stale(); lag > ss.maxStale {
			ss.s.qErrors.Inc()
			ss.writeError(wire.CodeStale,
				fmt.Sprintf("replica is %s behind, session max_staleness is %s", lag.Truncate(time.Millisecond), ss.maxStale),
				"retry on the leader or relax max_staleness")
			return false
		}
	}
	opts := ss.queryOptions()
	if d := ss.queryTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// Root span for the whole server-side life of the query; the queue
	// child covers admission so queue wait and shed decisions are visible
	// in the trace.
	tracer := eng.Tracer()
	if trace == 0 {
		trace = tracer.NextTraceID()
	}
	root := tracer.Start(trace, "query")
	queue := root.Child("queue")
	release, err := ss.s.admit(ctx)
	if err != nil {
		if errors.Is(err, errShedQueueFull) || errors.Is(err, errShedQueueWait) {
			queue.End("shed: " + err.Error())
			root.End("shed")
			// A shed leaves the session usable: the client should back off
			// for the hinted interval and retry on the same connection.
			ss.writeErrorRetry(wire.CodeBusy, "server overloaded", err.Error(), ss.s.cfg.RetryAfterHint)
			return false
		}
		queue.End("deadline expired")
		root.End("error")
		ss.writeError(wire.CodeTimeout, "query deadline expired while queued for admission", err.Error())
		return false
	}
	queue.End("admitted")
	defer release()

	opts.Trace = trace
	opts.Parent = root.ID()
	start := time.Now()
	res, err := eng.QueryWith(ctx, text, opts, params...)
	ss.s.queryNS.Observe(time.Since(start))
	if err != nil {
		root.End("error: " + err.Error())
		ss.s.qErrors.Inc()
		code := wire.CodeQuery
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			code = wire.CodeTimeout
		}
		ss.writeError(code, err.Error(), "")
		return false
	}
	root.Account(res.Res)
	root.End(fmt.Sprintf("rows=%d", len(res.Rows)+len(res.Molecules)))

	cols, rows := res.Columns, res.Rows
	if len(res.Molecules) > 0 && len(rows) == 0 {
		cols, rows = moleculeSummary(res)
	}
	if max := ss.s.cfg.MaxResultRows; max > 0 && len(rows) > max {
		ss.s.budgetRows.Inc()
		ss.writeError(wire.CodeQuery,
			fmt.Sprintf("result exceeds row budget: %d rows > %d", len(rows), max),
			"narrow the query or raise the server's MaxResultRows")
		return false
	}
	if err := ss.writeFrame(wire.FrameResultHeader, wire.EncodeResultHeader(cols)); err != nil {
		return true
	}
	sentBytes := 0
	for off := 0; off < len(rows); off += ss.batch {
		end := off + ss.batch
		if end > len(rows) {
			end = len(rows)
		}
		payload := wire.EncodeResultRows(rows[off:end])
		sentBytes += len(payload)
		if max := ss.s.cfg.MaxResultBytes; max > 0 && sentBytes > max {
			// Mid-stream budget stop: the client sees partial rows then a
			// typed error instead of a ResultDone, and discards the rows.
			ss.s.budgetBytes.Inc()
			ss.writeError(wire.CodeQuery,
				fmt.Sprintf("result exceeds byte budget: %d bytes > %d", sentBytes, max),
				"narrow the query or raise the server's MaxResultBytes")
			return false
		}
		if err := ss.writeFrame(wire.FrameResultRows, payload); err != nil {
			return true
		}
	}
	done := wire.ResultDone{
		Plan:      res.Plan,
		Rows:      uint64(len(rows)),
		Molecules: uint64(len(res.Molecules)),
		Elapsed:   time.Since(start),
		Trace:     res.Trace,
		Res:       res.Res,
		// The LSN this answer reflects: the replication watermark on a
		// follower, the appended LSN on a leader, 0 (omitted) in-memory.
		Watermark: eng.Watermark(),
		// The epoch the serving node believes in — clients watch this to
		// notice failovers and re-probe for the current leader.
		Epoch: eng.Epoch(),
	}
	return ss.writeFrame(wire.FrameResultDone, wire.EncodeResultDone(done)) != nil
}

// queryOptions assembles the engine-level options from session state.
func (ss *session) queryOptions() core.QueryOptions {
	opts := core.QueryOptions{VT: ss.vt, TT: ss.tt, SlowThreshold: ss.slow}
	if ss.pinned != nil {
		opts.TT = ss.pinned
	}
	return opts
}

// moleculeSummary flattens SELECT ALL results into one row per molecule:
// the full object graph does not cross the wire, its shape does.
func moleculeSummary(res *query.Result) ([]string, [][]value.V) {
	cols := []string{"molecule", "root", "atoms"}
	rows := make([][]value.V, 0, len(res.Molecules))
	for _, m := range res.Molecules {
		rows = append(rows, []value.V{
			value.String_(m.Type.Name),
			value.Ref(m.Root),
			value.Int(int64(m.Size())),
		})
	}
	return cols, rows
}

// checkDeadline surfaces a SetDeadline failure instead of silently
// proceeding without one: the counter always moves, the log fires once
// per session (a dead conn fails every call; one line is enough).
func (ss *session) checkDeadline(err error) {
	if err == nil {
		return
	}
	ss.s.deadlineErr.Inc()
	if !ss.deadlineErrLogged {
		ss.deadlineErrLogged = true
		ss.s.logf("session %d: SetDeadline failed, timeouts not enforced: %v", ss.id, err)
	}
}

// readFrame reads one frame under the idle deadline.
func (ss *session) readFrame() (wire.Frame, error) {
	ss.checkDeadline(ss.conn.SetReadDeadline(time.Now().Add(ss.s.cfg.ReadTimeout)))
	return wire.ReadFrame(ss.br)
}

// armWrite gives the next network write a fresh WriteTimeout deadline.
func (ss *session) armWrite() {
	ss.checkDeadline(ss.conn.SetWriteDeadline(time.Now().Add(ss.s.cfg.WriteTimeout)))
}

// flush sends the buffered reply in one write under the write deadline.
func (ss *session) flush() error {
	if ss.bw.Buffered() == 0 {
		return nil
	}
	ss.armWrite()
	return ss.bw.Flush()
}

// writeFrame appends one frame to the reply buffer. A frame that does not
// fit in the buffer's free space first flushes what is buffered; one
// larger than the whole buffer then goes straight to the network. Every
// network write runs under its own deadline.
func (ss *session) writeFrame(typ byte, payload []byte) error {
	if n := wire.FrameLen(payload); n > ss.bw.Available() {
		if err := ss.flush(); err != nil {
			return err
		}
		if n > ss.bw.Available() {
			ss.armWrite()
			return wire.WriteFrame(ss.conn, typ, payload)
		}
	}
	_, err := ss.bw.Write(wire.AppendFrame(ss.bw.AvailableBuffer(), typ, payload))
	return err
}

func (ss *session) writeError(code uint16, msg, detail string) {
	ss.writeFrame(wire.FrameError, wire.EncodeError(code, msg, detail))
}

// writeErrorRetry writes an error frame carrying a retry-after hint.
func (ss *session) writeErrorRetry(code uint16, msg, detail string, retryAfter time.Duration) {
	ss.writeFrame(wire.FrameError, wire.EncodeErrorRetry(code, msg, detail, uint32(retryAfter/time.Millisecond)))
}
