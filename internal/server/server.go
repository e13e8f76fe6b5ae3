// Package server exposes a tcodm engine over TCP using the wire protocol.
//
// Each accepted connection becomes a session with its own state: default
// valid/transaction-time slice, a per-query timeout, a per-session slow
// threshold, and an optional pinned read view ("begin"/"end" options) that
// fixes transaction time at the moment the pin was taken, giving
// repeatable reads across statements. TMQL is read-only, so the network
// surface carries no DML — writes stay in-process where the engine's
// single-writer lock cannot be held hostage to a stalled client.
//
// The server drains gracefully on Shutdown: the listener closes first
// (new dials are refused), sessions finish the frame they are executing,
// idle sessions are disconnected, and Shutdown returns when every session
// has exited or its context expires (then connections are hard-closed).
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/obs"
	"tcodm/internal/repl"
	"tcodm/internal/wire"
)

// Config parameterizes a Server. Engine is required; everything else has
// a usable default.
type Config struct {
	Engine *core.Engine
	Addr   string // listen address, e.g. ":7483"; used by ListenAndServe
	Banner string // served in the Welcome frame

	MaxConns     int           // concurrent session cap (default 64)
	ReadTimeout  time.Duration // max idle time between client frames (default 5m)
	WriteTimeout time.Duration // deadline for each network write (a reply is one write unless it outgrows the buffer; default 30s)
	QueryTimeout time.Duration // hard per-query cap; 0 = unlimited
	BatchRows    int           // rows per ResultRows frame (default 256)

	// Admission control. A session that receives a query must first pass
	// the gate: at most MaxActive queries execute concurrently, at most
	// MaxQueueDepth more wait (each at most MaxQueueWait). Everything
	// beyond is shed with CodeBusy and a RetryAfterHint so well-behaved
	// clients back off instead of hammering an overloaded server.
	MaxActive      int           // concurrent query executions (default 16)
	MaxQueueDepth  int           // admission queue slots beyond MaxActive (default 64)
	MaxQueueWait   time.Duration // max wait for a gate slot before shedding (default 1s)
	RetryAfterHint time.Duration // hint attached to shed/refuse errors (default 100ms)

	// Response budgets bound what one query may send back; 0 = unlimited.
	// A blown budget is a query error (CodeQuery): retrying cannot help.
	MaxResultRows  int // rows per result
	MaxResultBytes int // encoded result-row payload bytes per result

	// Repl, when set, serves replication subscriptions (FrameSubscribe):
	// the leader side of WAL shipping. Nil refuses subscriptions. Can be
	// installed after New via SetRepl — a follower that promotes becomes a
	// source without restarting its server.
	Repl *repl.Source
	// Staleness, when set, marks this server as a replica and reports how
	// far behind the leader it currently is — the "max_staleness" session
	// option gates queries on it with CodeStale. Nil on leaders. Can be
	// replaced after New via SetStaleness (a promoted leader reports zero
	// lag so replica-dialed clients keep their max_staleness option).
	Staleness func() time.Duration

	// Admin, when set, handles FrameAdmin commands ("promote", "epoch", …)
	// and returns a human-readable result. Nil refuses admin frames. The
	// hook runs on the session goroutine; keep it bounded.
	Admin func(cmd string) (string, error)

	Logf func(format string, args ...any) // optional diagnostics sink
}

func (c Config) withDefaults() Config {
	if c.Banner == "" {
		c.Banner = "tcoserve/1"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.BatchRows <= 0 {
		c.BatchRows = 256
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 16
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 64
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = time.Second
	}
	if c.RetryAfterHint <= 0 {
		c.RetryAfterHint = 100 * time.Millisecond
	}
	return c
}

// Server serves wire-protocol sessions against one engine.
type Server struct {
	cfg Config
	// eng is the serving engine. It starts as cfg.Engine and is replaced
	// by SwapEngine when a follower re-bootstraps from a snapshot; every
	// query captures it once so a single statement never straddles a swap.
	eng      atomic.Pointer[core.Engine]
	baseCtx  context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	mu       sync.Mutex
	ln       net.Listener
	sessions map[uint64]*session
	nextID   uint64
	draining bool

	// gate is the concurrent-query semaphore; waiters counts admission
	// queue occupancy (the gauge mirrors it for observability, the atomic
	// is what the shed decision reads).
	gate    chan struct{}
	waiters atomic.Int64

	// dynMu guards the reconfigurable role state: a follower that promotes
	// swaps in a replication source and a zero-lag staleness probe without
	// restarting the server. Reads are per-frame, never per-row.
	dynMu     sync.Mutex
	repl      *repl.Source
	staleness func() time.Duration

	// Metrics live in the engine's registry so they surface through the
	// same /debug/vars and snapshot paths as engine-side telemetry.
	conns       *obs.Gauge
	accepted    *obs.Counter
	refused     *obs.Counter
	frames      *obs.Counter
	queries     *obs.Counter
	qErrors     *obs.Counter
	queryNS     *obs.Histogram
	shed        *obs.Counter
	shedFull    *obs.Counter
	shedWait    *obs.Counter
	queueDepth  *obs.Gauge
	queueWaitNS *obs.Histogram
	budgetRows  *obs.Counter
	budgetBytes *obs.Counter
	deadlineErr *obs.Counter
}

// New creates a server for cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Engine.Metrics()
	s := &Server{
		cfg:         cfg,
		baseCtx:     ctx,
		cancel:      cancel,
		sessions:    map[uint64]*session{},
		gate:        make(chan struct{}, cfg.MaxActive),
		conns:       reg.Gauge("server.conns"),
		accepted:    reg.Counter("server.conns_accepted"),
		refused:     reg.Counter("server.conns_refused"),
		frames:      reg.Counter("server.frames_in"),
		queries:     reg.Counter("server.queries"),
		qErrors:     reg.Counter("server.query_errors"),
		queryNS:     reg.Histogram("server.query_ns"),
		shed:        reg.Counter("server.shed"),
		shedFull:    reg.Counter("server.queue_shed_full"),
		shedWait:    reg.Counter("server.queue_shed_wait"),
		queueDepth:  reg.Gauge("server.queue_depth"),
		queueWaitNS: reg.Histogram("server.queue_wait_ns"),
		budgetRows:  reg.Counter("server.budget_rows"),
		budgetBytes: reg.Counter("server.budget_bytes"),
		deadlineErr: reg.Counter("server.deadline_err"),
	}
	s.eng.Store(cfg.Engine)
	s.repl = cfg.Repl
	s.staleness = cfg.Staleness
	return s, nil
}

// engine returns the currently serving engine.
func (s *Server) engine() *core.Engine { return s.eng.Load() }

// replSource returns the current replication source (nil = not a leader).
func (s *Server) replSource() *repl.Source {
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	return s.repl
}

// SetRepl installs (or clears) the replication source. A follower that
// promotes calls this so existing and new connections can subscribe.
func (s *Server) SetRepl(src *repl.Source) {
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	s.repl = src
}

// stalenessFn returns the current staleness probe (nil = not a replica).
func (s *Server) stalenessFn() func() time.Duration {
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	return s.staleness
}

// SetStaleness replaces the staleness probe. A promoted leader installs
// a zero-lag probe — "a leader is a replica with zero lag" — so sessions
// that set max_staleness while this node was a follower keep working.
func (s *Server) SetStaleness(fn func() time.Duration) {
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	s.staleness = fn
}

// SwapEngine atomically replaces the serving engine and returns the old
// one. Used when a follower re-bootstraps from a leader snapshot: the old
// engine is already closed, and queries that captured it mid-swap fail
// with a plain error — never a wrong answer. Server metrics stay bound to
// the original engine's registry.
func (s *Server) SwapEngine(next *core.Engine) *core.Engine {
	return s.eng.Swap(next)
}

// Shed errors returned by admit; both travel to the client as CodeBusy
// with the retry-after hint attached.
var (
	errShedQueueFull = errors.New("admission queue full")
	errShedQueueWait = errors.New("admission queue wait exceeded")
)

// admit acquires a slot on the concurrent-query gate, queueing up to the
// configured depth and wait. On success it returns a release func; on
// shed it returns errShedQueueFull or errShedQueueWait; a context error
// means the query's own deadline fired while queued.
func (s *Server) admit(ctx context.Context) (func(), error) {
	select {
	case s.gate <- struct{}{}:
		return func() { <-s.gate }, nil
	default:
	}
	if int(s.waiters.Add(1)) > s.cfg.MaxQueueDepth {
		s.waiters.Add(-1)
		s.shed.Inc()
		s.shedFull.Inc()
		return nil, errShedQueueFull
	}
	s.queueDepth.Add(1)
	defer func() {
		s.waiters.Add(-1)
		s.queueDepth.Add(-1)
	}()
	start := time.Now()
	timer := time.NewTimer(s.cfg.MaxQueueWait)
	defer timer.Stop()
	select {
	case s.gate <- struct{}{}:
		s.queueWaitNS.Observe(time.Since(start))
		return func() { <-s.gate }, nil
	case <-timer.C:
		s.shed.Inc()
		s.shedWait.Inc()
		return nil, errShedQueueWait
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listener address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts sessions on ln until Shutdown closes it. It returns nil
// after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.accepted.Inc()

		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.refuse(conn, wire.CodeDraining, "server draining")
			continue
		}
		if len(s.sessions) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.refused.Inc()
			s.refuse(conn, wire.CodeBusy, fmt.Sprintf("connection limit %d reached", s.cfg.MaxConns))
			continue
		}
		s.nextID++
		sess := newSession(s, s.nextID, conn)
		s.sessions[sess.id] = sess
		s.mu.Unlock()

		s.conns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.conns.Add(-1)
			defer s.forget(sess.id)
			sess.serve(s.baseCtx)
		}()
	}
}

// refuse reports an error frame on a connection we will not serve. The
// retry-after hint tells backing-off clients when the refusal might lift.
func (s *Server) refuse(conn net.Conn, code uint16, msg string) {
	if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		s.deadlineErr.Inc()
	}
	hint := uint32(s.cfg.RetryAfterHint / time.Millisecond)
	wire.WriteFrame(conn, wire.FrameError, wire.EncodeErrorRetry(code, msg, "", hint))
	conn.Close()
}

func (s *Server) forget(id uint64) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// Shutdown drains the server: the listener closes immediately (new dials
// are refused by the OS), idle sessions are disconnected, and busy
// sessions finish the frame they are executing. When ctx expires before
// the drain completes, remaining queries are cancelled and connections
// hard-closed. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	for _, sess := range s.sessions {
		sess.drain()
	}
	s.mu.Unlock()
	if ln != nil && !already {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel() // cancel in-flight queries
		s.mu.Lock()
		for _, sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
