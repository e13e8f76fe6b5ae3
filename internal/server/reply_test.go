package server

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcodm/internal/value"
	"tcodm/internal/wire"
)

// writeCountingListener counts the Write calls made on the conns it
// accepts: each one is a network write of the server's.
type writeCountingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{Conn: c, n: &l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	n *atomic.Int64
}

// Write counts before writing, so a count read after the peer has the
// bytes is already up to date.
func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// readReply reads one complete reply: ResultHeader, ResultRows frames and
// ResultDone. It returns the rows, the number of ResultRows frames and
// the ResultDone.
func readReply(t *testing.T, c net.Conn) ([][]value.V, int, wire.ResultDone) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := wire.ReadFrame(c)
	if err != nil || f.Type != wire.FrameResultHeader {
		t.Fatalf("expected ResultHeader, got %+v, %v", f, err)
	}
	var rows [][]value.V
	frames := 0
	for {
		f, err := wire.ReadFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case wire.FrameResultRows:
			batch, err := wire.DecodeResultRows(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, batch...)
			frames++
		case wire.FrameResultDone:
			done, err := wire.DecodeResultDone(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return rows, frames, done
		default:
			t.Fatalf("unexpected frame 0x%02x mid-reply", f.Type)
		}
	}
}

// TestReplyIsOneWrite checks that the server buffers a reply and sends it
// in one network write, and that a reply outgrowing the buffer still
// arrives whole, in order, in no more writes than it has frames.
func TestReplyIsOneWrite(t *testing.T) {
	eng := personnelEngine(t)
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &writeCountingListener{Listener: tcp}
	serveListener(t, eng, ln, nil)

	// rawSession fails unless the Welcome arrives: it must not wait in
	// the buffer for a frame the client has no reason to send.
	c := rawSession(t, tcp.Addr().String())
	if got := ln.writes.Load(); got != 1 {
		t.Fatalf("Welcome took %d writes, want 1", got)
	}

	t.Run("point", func(t *testing.T) {
		before := ln.writes.Load()
		stmt := `SELECT (name, salary) FROM Emp WHERE name = $1 LIMIT 1`
		if err := wire.WriteFrame(c, wire.FrameExec, wire.EncodeExecTrace(stmt, []value.V{value.String_("emp-0007")}, 0)); err != nil {
			t.Fatal(err)
		}
		rows, _, done := readReply(t, c)
		if len(rows) != 1 || done.Rows != 1 {
			t.Fatalf("point read: %d rows, ResultDone.Rows %d, want 1", len(rows), done.Rows)
		}
		if got := ln.writes.Load() - before; got != 1 {
			t.Fatalf("point reply took %d writes, want 1", got)
		}
	})

	// 300 rows of about 37 bytes: 64-row frames are smaller than the
	// buffer but outgrow it together; 128-row frames are each larger
	// than the buffer and go straight through.
	const history = `SELECT HISTORY(Emp.salary) FROM Emp DURING [0, 1000)`
	want, err := eng.Query(history)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []string{"64", "128"} {
		t.Run("batch="+batch, func(t *testing.T) {
			if err := wire.WriteFrame(c, wire.FrameOption, wire.EncodeOption("batch", batch)); err != nil {
				t.Fatal(err)
			}
			if f, err := wire.ReadFrame(c); err != nil || f.Type != wire.FrameAck {
				t.Fatalf("batch option: %+v, %v", f, err)
			}
			before := ln.writes.Load()
			if err := wire.WriteFrame(c, wire.FrameQuery, wire.EncodeQueryTrace(history, 0)); err != nil {
				t.Fatal(err)
			}
			rows, frames, done := readReply(t, c)
			writes := ln.writes.Load() - before
			if frames < 3 {
				t.Fatalf("%d ResultRows frames, want several", frames)
			}
			if done.Rows != uint64(len(rows)) || len(rows) != len(want.Rows) {
				t.Fatalf("got %d rows, ResultDone.Rows %d, want %d", len(rows), done.Rows, len(want.Rows))
			}
			for i := range want.Rows {
				for j := range want.Rows[i] {
					if rows[i][j] != want.Rows[i][j] {
						t.Fatalf("row %d col %d: %v, want %v", i, j, rows[i][j], want.Rows[i][j])
					}
				}
			}
			// More than one write, since the reply outgrew the buffer, and
			// at most one more than the rows frames: every write carries
			// whole frames, and only the header may go out alone.
			if writes < 2 || writes > int64(frames+1) {
				t.Fatalf("%d ResultRows frames took %d writes, want 2..%d", frames, writes, frames+1)
			}
		})
	}
}

// pipeListener hands out the server ends of net.Pipe connections: a
// write blocks until the peer reads it, and deadlines work.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

// dial returns the client end of a new connection.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestStalledReaderCutOffByWriteTimeout checks that a client which sends
// a query and never reads the reply ends its session after WriteTimeout,
// and that Shutdown then has no session left to wait for.
func TestStalledReaderCutOffByWriteTimeout(t *testing.T) {
	const writeTimeout = 100 * time.Millisecond
	eng := personnelEngine(t)
	ln := newPipeListener()
	srv := serveListener(t, eng, ln, func(c *Config) { c.WriteTimeout = writeTimeout })

	c := ln.dial()
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(c, wire.FrameHello, wire.EncodeHello("stalled")); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(c); err != nil || f.Type != wire.FrameWelcome {
		t.Fatalf("handshake: %+v, %v", f, err)
	}
	if err := wire.WriteFrame(c, wire.FrameQuery, wire.EncodeQueryTrace(`SELECT (name) FROM Emp`, 0)); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()

	sessions := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.sessions)
	}
	for sessions() > 0 {
		if time.Since(sent) > writeTimeout+2*time.Second {
			t.Fatalf("session still open %v after its reply stalled (WriteTimeout %v)", time.Since(sent), writeTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if waited := time.Since(sent); waited < writeTimeout {
		t.Fatalf("session ended after %v, before its write deadline of %v", waited, writeTimeout)
	}
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("the stalled client's connection is still open")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Shutdown took %v with no live session", d)
	}
	if n := srv.conns.Value(); n != 0 {
		t.Fatalf("server.conns = %d after Shutdown, want 0", n)
	}
}
