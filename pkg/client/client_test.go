package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/netfault"
	"tcodm/internal/obs"
	"tcodm/internal/server"
	"tcodm/internal/value"
	"tcodm/internal/wire"
	"tcodm/internal/workload"
)

// fakeServer speaks just enough wire protocol for retry tests: it
// handshakes every connection and answers each query via respond, which
// receives the global 1-based query sequence number. Ping always pongs.
func fakeServer(t *testing.T, respond func(c net.Conn, n int)) (addr string, queries *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var count atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				f, err := wire.ReadFrame(c)
				if err != nil || f.Type != wire.FrameHello {
					return
				}
				if err := wire.WriteFrame(c, wire.FrameWelcome, wire.EncodeWelcomeInfo(wire.WelcomeInfo{Banner: "fake", Session: 1})); err != nil {
					return
				}
				for {
					f, err := wire.ReadFrame(c)
					if err != nil {
						return
					}
					switch f.Type {
					case wire.FramePing:
						wire.WriteFrame(c, wire.FramePong, f.Payload)
					case wire.FrameQuery, wire.FrameExec:
						respond(c, int(count.Add(1)))
					case wire.FrameClose:
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &count
}

// writeOKResult streams a one-row result.
func writeOKResult(c net.Conn) {
	wire.WriteFrame(c, wire.FrameResultHeader, wire.EncodeResultHeader([]string{"n"}))
	wire.WriteFrame(c, wire.FrameResultRows, wire.EncodeResultRows([][]value.V{{value.Int(1)}}))
	wire.WriteFrame(c, wire.FrameResultDone, wire.EncodeResultDone(wire.ResultDone{Rows: 1}))
}

// TestDialBackoffInterruptedByClose is the regression test for the
// context-blind backoff sleep: a failed dial is a failed attempt of the
// call, and Close must interrupt the call's retry schedule promptly
// instead of waiting it out.
func TestDialBackoffInterruptedByClose(t *testing.T) {
	// A port with nothing listening: dials fail instantly with refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cl, err := New(Config{
		Addr:            addr,
		QueryRetries:    5,
		RetryBackoff:    400 * time.Millisecond,
		BreakerFailures: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- cl.Ping() }()
	time.Sleep(30 * time.Millisecond) // let the first dial fail and the backoff start
	cl.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Ping succeeded against a dead address")
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("Close took %v to interrupt the dial backoff", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never interrupted the dial backoff")
	}
}

func TestQueryRetryHonorsRetryAfterHint(t *testing.T) {
	addr, queries := fakeServer(t, func(c net.Conn, n int) {
		if n == 1 {
			wire.WriteFrame(c, wire.FrameError, wire.EncodeErrorRetry(wire.CodeBusy, "overloaded", "", 200))
			return
		}
		writeOKResult(c)
	})
	reg := obs.New()
	cl, err := New(Config{
		Addr:         addr,
		RetryBackoff: time.Millisecond, // the server hint must dominate
		JitterSeed:   1,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	res, err := cl.Query(`SELECT (n) FROM T`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("retried query: %v", err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("retry fired after %v, before the 200ms server hint", d)
	}
	if got := queries.Load(); got != 2 {
		t.Fatalf("server saw %d queries, want 2 (shed + retry)", got)
	}
	if got := reg.Counters()["client.retry"]; got != 1 {
		t.Fatalf("client.retry = %d, want 1", got)
	}
}

func TestSessionNeverAutoRetries(t *testing.T) {
	addr, queries := fakeServer(t, func(c net.Conn, n int) {
		wire.WriteFrame(c, wire.FrameError, wire.EncodeErrorRetry(wire.CodeBusy, "overloaded", "", 50))
	})
	cl, err := New(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	_, err = sess.Query(`SELECT (n) FROM T`)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBusy {
		t.Fatalf("expected the shed to surface unretried, got %v", err)
	}
	if se.RetryAfterMs != 50 {
		t.Fatalf("RetryAfterMs = %d, want 50", se.RetryAfterMs)
	}
	if got := queries.Load(); got != 1 {
		t.Fatalf("server saw %d queries from a session call, want exactly 1", got)
	}
}

// TestPoolHygieneMidResultError is the satellite check: a connection that
// errors mid-result must be discarded, never returned to the idle pool.
func TestPoolHygieneMidResultError(t *testing.T) {
	addr, queries := fakeServer(t, func(c net.Conn, n int) {
		if n == 1 {
			// Header and one batch, then the connection dies mid-stream.
			wire.WriteFrame(c, wire.FrameResultHeader, wire.EncodeResultHeader([]string{"n"}))
			wire.WriteFrame(c, wire.FrameResultRows, wire.EncodeResultRows([][]value.V{{value.Int(1)}}))
			c.Close()
			return
		}
		writeOKResult(c)
	})
	cl, err := New(Config{Addr: addr, QueryRetries: -1, BreakerFailures: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Query(`SELECT (n) FROM T`); err == nil {
		t.Fatal("expected a transport error from the cut result stream")
	}
	leader := cl.leader.Load()
	leader.mu.Lock()
	pooled := len(leader.idle)
	leader.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("%d connections pooled after a mid-result transport error", pooled)
	}
	// The next query dials fresh and succeeds.
	if res, err := cl.Query(`SELECT (n) FROM T`); err != nil || len(res.Rows) != 1 {
		t.Fatalf("query after discard: %v", err)
	}
	if got := queries.Load(); got != 2 {
		t.Fatalf("server saw %d queries, want 2", got)
	}
}

// startRealServer serves an engine for breaker/leak tests.
func startRealServer(t *testing.T, eng *core.Engine) string {
	t.Helper()
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	})
	return ln.Addr().String()
}

func emptyEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestBreakerOpensHalfOpensRecovers drives the breaker through its full
// state machine with scripted accept-time refusals: two failures open it,
// a failed half-open probe re-opens it, a successful probe closes it.
func TestBreakerOpensHalfOpensRecovers(t *testing.T) {
	addr := startRealServer(t, emptyEngine(t))
	proxy, err := netfault.NewProxy(addr, 1, func(i int) netfault.Script {
		return netfault.Script{RefuseAccept: i < 3} // first three dials die
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	reg := obs.New()
	cl, err := New(Config{
		Addr:            proxy.Addr(),
		QueryRetries:    -1, // one dial per call: failures are countable
		BreakerFailures: 2,
		BreakerCooldown: 50 * time.Millisecond,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("first refused dial: got %v", err)
	}
	if err := cl.Ping(); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second refused dial: got %v", err)
	}
	// Two consecutive transport failures: open. Calls fail fast now.
	if err := cl.Ping(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("expected ErrBreakerOpen, got %v", err)
	}
	if got := proxy.Accepted(); got != 2 {
		t.Fatalf("fast-fail still dialed: %d accepts, want 2", got)
	}

	// After the cooldown one probe goes through — and is refused: re-open.
	time.Sleep(70 * time.Millisecond)
	if err := cl.Ping(); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("half-open probe: got %v", err)
	}
	if err := cl.Ping(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("expected re-opened breaker, got %v", err)
	}

	// Next probe reaches the healthy server: the circuit closes for good.
	time.Sleep(70 * time.Millisecond)
	if err := cl.Ping(); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("closed breaker: %v", err)
	}
	if got := reg.Counters()["client.breaker_open"]; got != 2 {
		t.Fatalf("client.breaker_open = %d, want 2", got)
	}
	if got := cl.brk.snapshot(); got != breakerClosed {
		t.Fatalf("breaker state = %d, want closed", got)
	}
}

// TestRetryBudgetBoundsDials: a dial is one attempt of the call, so the
// retry budget bounds dials too. Against a server that refuses every
// connection, a call dials once plus once per budget token, and once the
// budget is spent a call dials exactly once.
func TestRetryBudgetBoundsDials(t *testing.T) {
	addr := startRealServer(t, emptyEngine(t))
	proxy, err := netfault.NewProxy(addr, 1, func(int) netfault.Script {
		return netfault.Script{RefuseAccept: true}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	reg := obs.New()
	cl, err := New(Config{
		Addr:            proxy.Addr(),
		RetryBudget:     2,
		RetryBackoff:    time.Millisecond,
		BreakerFailures: -1,
		JitterSeed:      1,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err == nil {
		t.Fatal("Ping through a refusing proxy succeeded")
	}
	if got := proxy.Accepted(); got > 3 {
		t.Fatalf("first call dialed %d times, want at most 3 (one plus the budget of 2)", got)
	}
	before := proxy.Accepted()
	if err := cl.Ping(); err == nil {
		t.Fatal("Ping through a refusing proxy succeeded")
	}
	if got := proxy.Accepted() - before; got != 1 {
		t.Fatalf("a call after the budget ran out dialed %d times, want 1", got)
	}
	if got := reg.Counters()["client.retry_budget_exhausted"]; got != 2 {
		t.Fatalf("client.retry_budget_exhausted = %d, want 2", got)
	}
}

func personnelEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng := emptyEngine(t)
	sch, err := workload.PersonnelSchema()
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Install(eng, sch); err != nil {
		t.Fatal(err)
	}
	app := workload.NewEngineApplier(eng, 256)
	ops := workload.Personnel(workload.PersonnelParams{
		Depts: 2, Emps: 20, UpdatesPerEmp: 2, MovesPerEmp: 1, TimeStep: 10, Seed: 42,
	})
	if _, err := workload.Apply(ops, app); err != nil {
		t.Fatal(err)
	}
	if err := app.Flush(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	return len(entries)
}

// TestChaosQueriesNoLeaks runs 1k queries through a fault-injecting proxy
// that corrupts a slice of the connections; every successful result must
// be correct, and afterwards no goroutines or file descriptors may leak.
func TestChaosQueriesNoLeaks(t *testing.T) {
	const total = 1000
	eng := personnelEngine(t)
	addr := startRealServer(t, eng)

	const q = `SELECT (name) FROM Emp WHERE salary > 2000`
	golden, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	startGoroutines := runtime.NumGoroutine()
	startFDs := openFDs(t)

	proxy, err := netfault.NewProxy(addr, 7, func(i int) netfault.Script {
		switch {
		case i%7 == 3:
			// Corrupt the client-to-server stream inside the first query
			// frame (past the ~25-byte handshake): the server's CRC check
			// rejects it and kills the session.
			return netfault.Script{Read: netfault.PipeScript{CorruptAt: 40}}
		case i%11 == 5:
			// Corrupt the server-to-client result stream past the Welcome.
			return netfault.Script{Write: netfault.PipeScript{CorruptAt: 100}}
		default:
			return netfault.Script{}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	cl, err := New(Config{
		Addr:            proxy.Addr(),
		QueryRetries:    5,
		RetryBackoff:    time.Millisecond,
		MaxBackoff:      5 * time.Millisecond,
		RetryBudget:     -1,
		BreakerFailures: -1, // fault density here would flap the breaker
		JitterSeed:      7,
		PoolSize:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		res, err := cl.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Rows) != len(golden.Rows) {
			t.Fatalf("query %d: %d rows, want %d — corruption produced a wrong answer", i, len(res.Rows), len(golden.Rows))
		}
	}
	cl.Close()
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	if got := proxy.Conns(); got != 0 {
		t.Fatalf("%d proxied connections leaked", got)
	}

	// Goroutines and fds must settle back to the baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= startGoroutines+5 && openFDs(t) <= startFDs+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: goroutines %d->%d, fds %d->%d",
				startGoroutines, runtime.NumGoroutine(), startFDs, openFDs(t))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRetryLogCarriesTraceID: one logical call keeps one trace id across
// retries, the id lands in every Logf line, and the server-reported trace
// and resource totals surface on the Result.
func TestRetryLogCarriesTraceID(t *testing.T) {
	var tracesMu sync.Mutex
	var traces []uint64 // trace id decoded from each received Query frame

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var count atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				f, err := wire.ReadFrame(c)
				if err != nil || f.Type != wire.FrameHello {
					return
				}
				wire.WriteFrame(c, wire.FrameWelcome, wire.EncodeWelcomeInfo(wire.WelcomeInfo{Banner: "fake", Session: 1}))
				for {
					f, err := wire.ReadFrame(c)
					if err != nil {
						return
					}
					if f.Type != wire.FrameQuery {
						continue
					}
					_, trace, err := wire.DecodeQueryTrace(f.Payload)
					if err != nil {
						t.Errorf("decoding traced query: %v", err)
						return
					}
					tracesMu.Lock()
					traces = append(traces, trace)
					tracesMu.Unlock()
					if count.Add(1) == 1 {
						// First attempt sheds: the client must retry with the
						// SAME trace id (one logical call, one trace).
						wire.WriteFrame(c, wire.FrameError, wire.EncodeErrorRetry(wire.CodeBusy, "overloaded", "", 5))
						continue
					}
					wire.WriteFrame(c, wire.FrameResultHeader, wire.EncodeResultHeader([]string{"n"}))
					wire.WriteFrame(c, wire.FrameResultRows, wire.EncodeResultRows([][]value.V{{value.Int(1)}}))
					wire.WriteFrame(c, wire.FrameResultDone, wire.EncodeResultDone(wire.ResultDone{
						Rows: 1, Trace: trace, Res: obs.Resources{Atoms: 1, Pages: 2},
					}))
				}
			}()
		}
	}()

	var logMu sync.Mutex
	var logLines []string
	cl, err := New(Config{
		Addr:         ln.Addr().String(),
		RetryBackoff: time.Millisecond,
		JitterSeed:   3,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logLines = append(logLines, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Query(`SELECT (n) FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == 0 {
		t.Fatal("Result.Trace is 0; the client must stamp every query")
	}
	if res.Res.Atoms != 1 || res.Res.Pages != 2 {
		t.Fatalf("Result.Res = %s, want the server-reported totals", res.Res)
	}

	tracesMu.Lock()
	defer tracesMu.Unlock()
	if len(traces) != 2 {
		t.Fatalf("server saw %d queries, want 2", len(traces))
	}
	if traces[0] == 0 || traces[0] != traces[1] {
		t.Fatalf("retry changed the trace id: %d then %d", traces[0], traces[1])
	}
	if traces[0] != res.Trace {
		t.Fatalf("wire trace %d != Result.Trace %d", traces[0], res.Trace)
	}

	logMu.Lock()
	defer logMu.Unlock()
	if len(logLines) == 0 {
		t.Fatal("no Logf lines for a retried query")
	}
	want := fmt.Sprintf("trace=%d", res.Trace)
	for i, line := range logLines {
		if !strings.Contains(line, want) {
			t.Errorf("log line %d %q missing %q", i, line, want)
		}
	}
}

// deadlineCountingConn counts SetReadDeadline calls.
type deadlineCountingConn struct {
	net.Conn
	sets int
}

func (c *deadlineCountingConn) SetReadDeadline(t time.Time) error {
	c.sets++
	return c.Conn.SetReadDeadline(t)
}

// TestReadDeadlineClearedOnlyWhenArmed checks that with no ReadTimeout a
// read clears the deadline a handshake read armed, once, and later reads
// leave the connection's deadline alone.
func TestReadDeadlineClearedOnlyWhenArmed(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	dc := &deadlineCountingConn{Conn: a}
	cn := &conn{cfg: Config{}.withDefaults(), c: dc, r: bufio.NewReader(dc)}
	go func() {
		for i := 0; i < 4; i++ {
			wire.WriteFrame(b, wire.FramePong, nil)
		}
	}()
	want := []int{1, 2, 2, 2} // armed by the handshake read, cleared once
	for i, timeout := range []time.Duration{cn.cfg.DialTimeout, 0, 0, 0} {
		if _, err := cn.read(timeout); err != nil {
			t.Fatal(err)
		}
		if dc.sets != want[i] {
			t.Fatalf("after read %d: %d SetReadDeadline calls, want %d", i, dc.sets, want[i])
		}
	}
}
