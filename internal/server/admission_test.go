package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/wire"
)

// startServerFull is startServer but also returns the Server for tests
// that poke at the admission gate directly.
func startServerFull(t *testing.T, eng *core.Engine, mutate func(*Config)) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String(), serveListener(t, eng, ln, mutate)
}

// serveListener serves eng on ln. The server is drained at test cleanup,
// and Serve must then return nil.
func serveListener(t *testing.T, eng *core.Engine, ln net.Listener, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{Engine: eng, Banner: "tcoserve/test"}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv
}

func TestAdmitQueueFullSheds(t *testing.T) {
	srv, err := New(Config{Engine: personnelEngine(t), MaxActive: 1, MaxQueueDepth: 1, MaxQueueWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the gate, then fill the single queue slot with a waiter.
	srv.gate <- struct{}{}
	waiterIn := make(chan struct{})
	waiterOut := make(chan error, 1)
	go func() {
		close(waiterIn)
		release, err := srv.admit(context.Background())
		if err == nil {
			release()
		}
		waiterOut <- err
	}()
	<-waiterIn
	for srv.waiters.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// The next admit finds gate and queue both full: shed immediately.
	if _, err := srv.admit(context.Background()); !errors.Is(err, errShedQueueFull) {
		t.Fatalf("expected errShedQueueFull, got %v", err)
	}
	if got := srv.shed.Value(); got != 1 {
		t.Fatalf("server.shed = %d, want 1", got)
	}
	if got := srv.shedFull.Value(); got != 1 {
		t.Fatalf("server.queue_shed_full = %d, want 1", got)
	}

	// Releasing the gate admits the queued waiter.
	<-srv.gate
	if err := <-waiterOut; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	if srv.queueWaitNS.Count() == 0 {
		t.Error("server.queue_wait_ns never observed the queued admission")
	}
}

func TestAdmitQueueWaitSheds(t *testing.T) {
	srv, err := New(Config{Engine: personnelEngine(t), MaxActive: 1, MaxQueueDepth: 4, MaxQueueWait: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.gate <- struct{}{} // never released
	start := time.Now()
	if _, err := srv.admit(context.Background()); !errors.Is(err, errShedQueueWait) {
		t.Fatalf("expected errShedQueueWait, got %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("shed after %v, before MaxQueueWait", d)
	}
	if got := srv.shedWait.Value(); got != 1 {
		t.Fatalf("server.queue_shed_wait = %d, want 1", got)
	}
	if got := srv.waiters.Load(); got != 0 {
		t.Fatalf("waiters = %d after shed, want 0", got)
	}
}

func TestAdmitContextCancelWhileQueued(t *testing.T) {
	srv, err := New(Config{Engine: personnelEngine(t), MaxActive: 1, MaxQueueDepth: 4, MaxQueueWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	srv.gate <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := srv.admit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

// rawSession dials addr and completes the Hello/Welcome handshake,
// returning the raw conn for frame-level assertions.
func rawSession(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := wire.WriteFrame(c, wire.FrameHello, wire.EncodeHello("test")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := wire.ReadFrame(c)
	if err != nil || f.Type != wire.FrameWelcome {
		t.Fatalf("handshake: %+v, %v", f, err)
	}
	c.SetReadDeadline(time.Time{})
	return c
}

// readResult consumes one result stream, returning the row count or the
// server error.
func readResult(t *testing.T, c net.Conn) (rows int, serr error) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		f, err := wire.ReadFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case wire.FrameResultHeader:
		case wire.FrameResultRows:
			batch, err := wire.DecodeResultRows(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			rows += len(batch)
		case wire.FrameResultDone:
			return rows, nil
		case wire.FrameError:
			code, msg, detail, retry, err := wire.DecodeErrorRetry(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			return rows, &testServerError{code: code, msg: msg, detail: detail, retryAfterMs: retry}
		default:
			t.Fatalf("unexpected frame 0x%02x", f.Type)
		}
	}
}

type testServerError struct {
	code         uint16
	msg, detail  string
	retryAfterMs uint32
}

func (e *testServerError) Error() string { return fmt.Sprintf("%d: %s (%s)", e.code, e.msg, e.detail) }

// TestOverloadShedsWithRetryAfterThenRecovers drives a query into a
// saturated gate at the wire level: the shed must carry CodeBusy plus the
// retry-after hint, leave the session usable, and the same query must
// succeed once the gate frees up.
func TestOverloadShedsWithRetryAfterThenRecovers(t *testing.T) {
	eng := personnelEngine(t)
	addr, srv := startServerFull(t, eng, func(c *Config) {
		c.MaxActive = 1
		c.MaxQueueDepth = 1
		c.MaxQueueWait = 10 * time.Millisecond
		c.RetryAfterHint = 250 * time.Millisecond
	})

	// Saturate: gate occupied, queue slot occupied by a parked waiter.
	srv.gate <- struct{}{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if release, err := srv.admit(ctx); err == nil {
			release()
		}
	}()
	for srv.waiters.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	c := rawSession(t, addr)
	if err := wire.WriteFrame(c, wire.FrameQuery, wire.EncodeQueryTrace(`SELECT (name) FROM Emp WHERE salary > 4000`, 0)); err != nil {
		t.Fatal(err)
	}
	_, serr := readResult(t, c)
	var te *testServerError
	if !errors.As(serr, &te) || te.code != wire.CodeBusy {
		t.Fatalf("expected CodeBusy shed, got %v", serr)
	}
	if te.retryAfterMs != 250 {
		t.Fatalf("RetryAfterMs = %d, want 250", te.retryAfterMs)
	}

	// Free the gate; the same session retries and succeeds.
	<-srv.gate
	wg.Wait()
	if err := wire.WriteFrame(c, wire.FrameQuery, wire.EncodeQueryTrace(`SELECT (name) FROM Emp WHERE salary > 4000`, 0)); err != nil {
		t.Fatal(err)
	}
	rows, serr := readResult(t, c)
	if serr != nil || rows == 0 {
		t.Fatalf("session dead after shed: rows=%d, %v", rows, serr)
	}
	if srv.shed.Value() == 0 {
		t.Error("server.shed not incremented")
	}
}

func TestMaxConnsRefusalCarriesRetryAfter(t *testing.T) {
	eng := personnelEngine(t)
	addr, _ := startServerFull(t, eng, func(c *Config) {
		c.MaxConns = 1
		c.RetryAfterHint = 125 * time.Millisecond
	})

	_ = rawSession(t, addr) // occupies the only slot

	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.ReadFrame(c2)
	if err != nil || f.Type != wire.FrameError {
		t.Fatalf("expected refusal error frame, got %+v, %v", f, err)
	}
	code, _, _, retry, err := wire.DecodeErrorRetry(f.Payload)
	if err != nil || code != wire.CodeBusy {
		t.Fatalf("refusal: code=%d, %v", code, err)
	}
	if retry != 125 {
		t.Fatalf("refusal RetryAfterMs = %d, want 125", retry)
	}
}

func TestRowBudgetRejectsOversizedResult(t *testing.T) {
	eng := personnelEngine(t)
	addr, srv := startServerFull(t, eng, func(c *Config) { c.MaxResultRows = 3 })

	c := rawSession(t, addr)
	if err := wire.WriteFrame(c, wire.FrameQuery, wire.EncodeQueryTrace(`SELECT (name) FROM Emp`, 0)); err != nil {
		t.Fatal(err)
	}
	rows, serr := readResult(t, c)
	var te *testServerError
	if !errors.As(serr, &te) || te.code != wire.CodeQuery {
		t.Fatalf("expected CodeQuery budget error, got %v", serr)
	}
	if rows != 0 {
		t.Fatalf("row budget streamed %d rows before erroring", rows)
	}
	if srv.budgetRows.Value() != 1 {
		t.Fatalf("server.budget_rows = %d, want 1", srv.budgetRows.Value())
	}

	// A query under budget still works on the same session.
	if err := wire.WriteFrame(c, wire.FrameQuery, wire.EncodeQueryTrace(`SELECT (name) FROM Emp WHERE salary > 2000 LIMIT 2`, 0)); err != nil {
		t.Fatal(err)
	}
	if rows, serr := readResult(t, c); serr != nil || rows == 0 {
		t.Fatalf("session dead after row-budget error: rows=%d, %v", rows, serr)
	}
}

func TestByteBudgetStopsMidStream(t *testing.T) {
	eng := personnelEngine(t)
	addr, srv := startServerFull(t, eng, func(c *Config) {
		c.BatchRows = 2
		c.MaxResultBytes = 64 // a few small batches, then the cut
	})

	c := rawSession(t, addr)
	if err := wire.WriteFrame(c, wire.FrameQuery, wire.EncodeQueryTrace(`SELECT (name) FROM Emp`, 0)); err != nil {
		t.Fatal(err)
	}
	rows, serr := readResult(t, c)
	var te *testServerError
	if !errors.As(serr, &te) || te.code != wire.CodeQuery {
		t.Fatalf("expected mid-stream CodeQuery budget error, got %v", serr)
	}
	if rows == 0 {
		t.Fatal("byte budget cut the result before any rows were sent")
	}
	if srv.budgetBytes.Value() != 1 {
		t.Fatalf("server.budget_bytes = %d, want 1", srv.budgetBytes.Value())
	}
	// The session survives the mid-stream stop.
	if err := wire.WriteFrame(c, wire.FramePing, nil); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(c); err != nil || f.Type != wire.FramePong {
		t.Fatalf("session dead after byte-budget stop: %+v, %v", f, err)
	}
}

// deadlineFailConn wraps a net.Conn whose SetDeadline calls all fail —
// the shape of a conn whose fd died under the session.
type deadlineFailConn struct {
	net.Conn
}

var errDeadline = errors.New("setsockopt: bad file descriptor")

func (c deadlineFailConn) SetReadDeadline(time.Time) error  { return errDeadline }
func (c deadlineFailConn) SetWriteDeadline(time.Time) error { return errDeadline }

func TestDeadlineErrorsCountedAndLoggedOnce(t *testing.T) {
	var logged []string
	srv, err := New(Config{
		Engine: personnelEngine(t),
		Logf:   func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ss := newSession(srv, 1, deadlineFailConn{Conn: a})

	go wire.WriteFrame(b, wire.FramePing, nil)
	if _, err := ss.readFrame(); err != nil {
		t.Fatal(err)
	}
	go wire.WriteFrame(b, wire.FramePing, nil)
	if _, err := ss.readFrame(); err != nil {
		t.Fatal(err)
	}
	if got := srv.deadlineErr.Value(); got != 2 {
		t.Fatalf("server.deadline_err = %d, want 2 (one per SetDeadline failure)", got)
	}
	if len(logged) != 1 {
		t.Fatalf("deadline failure logged %d times, want once per session: %v", len(logged), logged)
	}
}
