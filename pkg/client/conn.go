package client

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"tcodm/internal/value"
	"tcodm/internal/wire"
)

// conn is one handshaken wire connection.
type conn struct {
	cfg       Config
	c         net.Conn
	r         *bufio.Reader
	sessionID uint64
	epoch     uint64 // leadership epoch the server reported at handshake
	writable  bool   // whether the server accepted writes at handshake
	// armed records that c carries a read deadline, so a read with none
	// clears it once instead of on every frame.
	armed bool
}

func (cn *conn) close() { cn.c.Close() }

// quit sends an orderly Close frame and closes the connection.
func (cn *conn) quit() {
	cn.write(wire.FrameClose, nil)
	cn.close()
}

func (cn *conn) write(typ byte, payload []byte) error {
	cn.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	return wire.WriteFrame(cn.c, typ, payload)
}

// handshake sends the Hello and reads the Welcome, recording the server's
// session id, epoch and writability. A positive staleness is then set as
// the "max_staleness" session option.
func (cn *conn) handshake(staleness time.Duration) error {
	if err := cn.write(wire.FrameHello, wire.EncodeHello(banner)); err != nil {
		return err
	}
	f, err := cn.read(cn.cfg.DialTimeout)
	if err != nil {
		return err
	}
	switch f.Type {
	case wire.FrameWelcome:
	case wire.FrameError:
		return decodeServerError(f.Payload)
	default:
		return fmt.Errorf("client: unexpected handshake frame 0x%02x", f.Type)
	}
	info, err := wire.DecodeWelcomeInfo(f.Payload)
	if err != nil {
		return err
	}
	cn.sessionID, cn.epoch, cn.writable = info.Session, info.Epoch, info.Writable
	if staleness > 0 {
		if _, err := cn.option("max_staleness", staleness.String()); err != nil {
			return fmt.Errorf("client: setting max_staleness: %w", err)
		}
	}
	return nil
}

// read reads one frame. timeout 0 falls back to cfg.ReadTimeout; that
// too being 0 means wait indefinitely (the server enforces query caps).
func (cn *conn) read(timeout time.Duration) (wire.Frame, error) {
	if timeout == 0 {
		timeout = cn.cfg.ReadTimeout
	}
	if timeout > 0 {
		cn.c.SetReadDeadline(time.Now().Add(timeout))
		cn.armed = true
	} else if cn.armed {
		cn.c.SetReadDeadline(time.Time{})
		cn.armed = false
	}
	return wire.ReadFrame(cn.r)
}

// query sends one query-class frame and consumes the result stream.
func (cn *conn) query(typ byte, payload []byte) (*Result, error) {
	if err := cn.write(typ, payload); err != nil {
		return nil, err
	}
	f, err := cn.read(0)
	if err != nil {
		return nil, err
	}
	if f.Type == wire.FrameError {
		return nil, decodeServerError(f.Payload)
	}
	if f.Type != wire.FrameResultHeader {
		return nil, fmt.Errorf("client: expected ResultHeader, got frame 0x%02x", f.Type)
	}
	cols, err := wire.DecodeResultHeader(f.Payload)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols}
	for {
		f, err := cn.read(0)
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case wire.FrameResultRows:
			batch, err := wire.DecodeResultRows(f.Payload)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, batch...)
		case wire.FrameResultDone:
			done, err := wire.DecodeResultDone(f.Payload)
			if err != nil {
				return nil, err
			}
			res.Plan = done.Plan
			res.Molecules = done.Molecules
			res.Elapsed = done.Elapsed
			res.Trace = done.Trace
			res.Res = done.Res
			res.Watermark = done.Watermark
			res.Epoch = done.Epoch
			if done.Rows != uint64(len(res.Rows)) {
				return nil, fmt.Errorf("client: result stream lost rows: got %d, server sent %d", len(res.Rows), done.Rows)
			}
			return res, nil
		case wire.FrameError:
			return nil, decodeServerError(f.Payload)
		default:
			return nil, fmt.Errorf("client: unexpected frame 0x%02x mid-result", f.Type)
		}
	}
}

func (cn *conn) ping() error {
	if err := cn.write(wire.FramePing, []byte("ping")); err != nil {
		return err
	}
	f, err := cn.read(cn.cfg.DialTimeout)
	if err != nil {
		return err
	}
	if f.Type != wire.FramePong {
		return fmt.Errorf("client: expected Pong, got frame 0x%02x", f.Type)
	}
	return nil
}

func (cn *conn) option(key, val string) (string, error) {
	if err := cn.write(wire.FrameOption, wire.EncodeOption(key, val)); err != nil {
		return "", err
	}
	f, err := cn.read(cn.cfg.DialTimeout)
	if err != nil {
		return "", err
	}
	switch f.Type {
	case wire.FrameAck:
		return wire.DecodeAck(f.Payload)
	case wire.FrameError:
		return "", decodeServerError(f.Payload)
	default:
		return "", fmt.Errorf("client: expected Ack, got frame 0x%02x", f.Type)
	}
}

// Session is a dedicated stateful connection. Not safe for concurrent
// use; a Session serializes its statements like any database session.
type Session struct {
	cn     *conn
	c      *Client // trace-id source; nil = statements run untraced
	closed bool
}

// ID returns the server-assigned session id.
func (s *Session) ID() uint64 { return s.cn.sessionID }

// nextTrace allocates a trace id from the owning client (0 when detached).
func (s *Session) nextTrace() uint64 {
	if s.c == nil {
		return 0
	}
	return s.c.nextTrace()
}

// Query runs a TMQL statement under the session's defaults.
func (s *Session) Query(text string) (*Result, error) {
	return s.cn.query(wire.FrameQuery, wire.EncodeQueryTrace(text, s.nextTrace()))
}

// Exec runs parameterized TMQL under the session's defaults.
func (s *Session) Exec(text string, params ...value.V) (*Result, error) {
	return s.cn.query(wire.FrameExec, wire.EncodeExecTrace(text, params, s.nextTrace()))
}

// Option sets one session option and returns the server's effective value.
// Keys: "vt", "tt"/"asof" (instant or "default"), "timeout", "slow"
// (durations), "batch" (rows per frame), "begin", "end".
func (s *Session) Option(key, val string) (string, error) {
	return s.cn.option(key, val)
}

// Begin pins the session's read view at the server's current transaction
// time and returns that instant: statements repeat exactly until End.
func (s *Session) Begin() (string, error) { return s.cn.option("begin", "") }

// End releases a pinned read view.
func (s *Session) End() error {
	_, err := s.cn.option("end", "")
	return err
}

// Ping round-trips a liveness probe.
func (s *Session) Ping() error { return s.cn.ping() }

// Close sends an orderly Close frame and closes the connection. The
// connection is never pooled: session state must not leak.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.cn.quit()
	return nil
}
