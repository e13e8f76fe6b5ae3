// Package client is the Go client for the tcodm query service. It speaks
// the wire protocol and pools connections for stateless queries.
//
// Every call runs under one retry loop. TMQL over the wire is read-only
// and every read names its (vt, tt), so running a Query, Exec or Ping
// again is always safe. An attempt that fails on the transport — its dial
// included — or that the server sheds (CodeBusy/CodeDraining) is retried
// after a jittered exponential backoff that honors the server's
// retry-after hint, bounded by a per-client retry budget and by a circuit
// breaker over the leader's transport.
//
// Stateful workflows — time-slice defaults, pinned read views
// ("begin"/"end") — need a dedicated connection: use Client.Session. Its
// dial is an attempt of the same loop, and its connection never returns
// to the pool. Session statements are NEVER auto-retried: they depend on
// session state the server may have lost with the connection, so the
// caller must decide.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tcodm/internal/obs"
	"tcodm/internal/value"
	"tcodm/internal/wire"
)

const (
	banner       = "tcodm-client/1" // sent in the Hello frame
	writeTimeout = 30 * time.Second // per-frame write deadline
)

// Config parameterizes a Client. Addr is required.
type Config struct {
	Addr string // leader address: writes, sessions, and fallback reads

	// Replicas are read-only follower addresses. When non-empty, Query and
	// Exec round-robin across them and fall back to the leader when a
	// replica is unreachable or refuses with CodeStale. Sessions and Pings
	// always use the leader. Each address must be distinct from Addr and
	// from each other.
	Replicas []string

	// MaxStaleness bounds how far behind a replica may serve reads: it is
	// set as the "max_staleness" session option on every replica
	// connection, and a replica that cannot honor it answers CodeStale,
	// which routes the query to the leader. 0 = any staleness is fine.
	MaxStaleness time.Duration

	DialTimeout time.Duration // per-attempt dial timeout (default 5s)
	PoolSize    int           // max idle pooled connections (default 4)
	ReadTimeout time.Duration // per-frame read deadline, re-armed for each frame of a reply; 0 = wait indefinitely

	// The retry loop. Every call — Query, Exec, Ping and the dial that
	// opens a Session, never a Session statement — retries a transport
	// failure or a server shed after a jittered exponential backoff of at
	// least the server's RetryAfter hint. Each retry spends one token of
	// the budget.
	QueryRetries int           // extra attempts per call (default 3, -1 disables)
	RetryBackoff time.Duration // first backoff, doubling per retry (default 50ms)
	MaxBackoff   time.Duration // backoff ceiling per attempt (default 2s)
	RetryBudget  int           // lifetime cap on automatic retries (default 1024, -1 unlimited)

	// Circuit breaker over the leader's transport: it gates leader
	// attempts only, and every leader attempt it admits settles it.
	// Server-reported errors do not count: an Error frame proves the
	// server is alive.
	BreakerFailures int           // consecutive failures to open (default 8, -1 disables)
	BreakerCooldown time.Duration // open period before the half-open probe (default 500ms)

	JitterSeed int64         // seeds backoff jitter; 0 derives from the clock
	Metrics    *obs.Registry // optional metrics sink (nil = no metrics)

	// Logf, when set, receives one line per retry and breaker decision.
	// Every line carries the call's trace id, so a retried query's
	// attempts correlate with the server-side span trees. Nil disables.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.QueryRetries < 0 {
		c.QueryRetries = 0
	} else if c.QueryRetries == 0 {
		c.QueryRetries = 3
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 1024
	}
	if c.BreakerFailures < 0 {
		c.BreakerFailures = 0 // disabled
	} else if c.BreakerFailures == 0 {
		c.BreakerFailures = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	return c
}

// ServerError is a failure reported by the server in an Error frame.
type ServerError struct {
	Code   uint16
	Msg    string
	Detail string
	// RetryAfterMs is the server's backoff hint on sheds and refusals
	// (0 = none): retry no sooner than this many milliseconds.
	RetryAfterMs uint32
}

func (e *ServerError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("server error %d: %s (%s)", e.Code, e.Msg, e.Detail)
	}
	return fmt.Sprintf("server error %d: %s", e.Code, e.Msg)
}

// Result is one query's outcome.
type Result struct {
	Columns   []string
	Rows      [][]value.V
	Plan      string
	Molecules uint64        // molecules summarized (SELECT ALL)
	Elapsed   time.Duration // server-side execution + streaming time
	Trace     uint64        // trace id the query ran under (0 = untraced)
	Res       obs.Resources // exact server-side resource totals
	// Watermark is the highest WAL LSN the answering server's store
	// reflected when the query ran: on a replica it tells the caller
	// exactly how fresh the read was; on a leader it is the commit horizon.
	Watermark uint64
	// Epoch is the leadership epoch the answering server believed in. It
	// increases by at least one at every promotion; a caller that sees it
	// jump knows a failover happened between two of its reads.
	Epoch uint64
}

// errClosed reports a call on a closed client; never retried.
var errClosed = errors.New("client: closed")

// ConfigError reports an invalid Config field, caught at New rather than
// surfacing later as a confusing dial failure.
type ConfigError struct {
	Field  string // "Addr" or "Replicas[i]"
	Value  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("client: config %s = %q: %s", e.Field, e.Value, e.Reason)
}

// validateAddrs checks the address set: the leader address is required and
// well-formed, every replica address is well-formed, and no address —
// leader included — appears twice (a duplicate silently doubles that
// server's read share and usually means a copy-paste slip).
func validateAddrs(cfg Config) error {
	check := func(field, addr string) error {
		if addr == "" {
			return &ConfigError{Field: field, Value: addr, Reason: "address is empty"}
		}
		if _, _, err := net.SplitHostPort(addr); err != nil {
			return &ConfigError{Field: field, Value: addr, Reason: "want host:port: " + err.Error()}
		}
		return nil
	}
	if err := check("Addr", cfg.Addr); err != nil {
		return err
	}
	seen := map[string]string{cfg.Addr: "Addr"}
	for i, r := range cfg.Replicas {
		field := fmt.Sprintf("Replicas[%d]", i)
		if err := check(field, r); err != nil {
			return err
		}
		if prev, dup := seen[r]; dup {
			return &ConfigError{Field: field, Value: r, Reason: "duplicates " + prev}
		}
		seen[r] = field
	}
	return nil
}

// endpoint is one server address with its own idle-connection pool.
type endpoint struct {
	addr    string
	replica bool
	mu      sync.Mutex
	idle    []*conn
}

// Client is a pooled client over one leader and any number of read
// replicas.
type Client struct {
	cfg    Config
	ctx    context.Context // done at Close: interrupts every backoff sleep
	cancel context.CancelFunc
	brk    *breaker
	budget atomic.Int64 // remaining automatic retries; negative = exhausted

	// leader is the endpoint leader-targeted traffic (read fallback,
	// Sessions, Pings) goes to. It starts as cfg.Addr and is re-pointed by
	// failover() when a probe finds a higher-epoch writable node.
	leader   atomic.Pointer[endpoint]
	replicas []*endpoint
	rr       atomic.Uint32 // read round-robin position

	// epoch is the highest leadership epoch observed on any handshake or
	// result; failMu serializes failover probes so a burst of failures
	// re-points the leader once, not once per caller.
	epoch  atomic.Uint64
	failMu sync.Mutex

	rngMu sync.Mutex
	rng   *rand.Rand // jitter source; seeded for reproducible chaos runs

	mu     sync.Mutex
	closed bool

	retries      *obs.Counter // client.retry
	retryGiveups *obs.Counter // client.retry_budget_exhausted
	fallbacks    *obs.Counter // client.replica_fallback
	failovers    *obs.Counter // client.failovers
}

// New creates a client for cfg.Addr. No connection is made until first use.
func New(cfg Config) (*Client, error) {
	if err := validateAddrs(cfg); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		cfg:          cfg,
		ctx:          ctx,
		cancel:       cancel,
		brk:          newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, cfg.Metrics),
		rng:          rand.New(rand.NewSource(seed)),
		retries:      cfg.Metrics.Counter("client.retry"),
		retryGiveups: cfg.Metrics.Counter("client.retry_budget_exhausted"),
		fallbacks:    cfg.Metrics.Counter("client.replica_fallback"),
		failovers:    cfg.Metrics.Counter("client.failovers"),
	}
	c.leader.Store(&endpoint{addr: cfg.Addr})
	for _, r := range cfg.Replicas {
		c.replicas = append(c.replicas, &endpoint{addr: r, replica: true})
	}
	if cfg.RetryBudget < 0 {
		c.budget.Store(1 << 62) // effectively unlimited
	} else {
		c.budget.Store(int64(cfg.RetryBudget))
	}
	return c, nil
}

// Dial creates a client and verifies the server is reachable with a Ping.
func Dial(addr string) (*Client, error) {
	c, err := New(Config{Addr: addr})
	if err != nil {
		return nil, err
	}
	if err := c.Ping(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes every pooled connection and interrupts any in-flight
// backoff sleep. In-flight calls finish on their borrowed connections,
// which are then discarded.
func (c *Client) Close() error {
	c.cancel()
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	for _, ep := range append([]*endpoint{c.leader.Load()}, c.replicas...) {
		ep.mu.Lock()
		idle := ep.idle
		ep.idle = nil
		ep.mu.Unlock()
		for _, cn := range idle {
			cn.close()
		}
	}
	return nil
}

// Query runs a TMQL statement on a pooled connection, retrying
// transparently on transport failures and server sheds (TMQL over the
// wire is read-only, so re-running is always safe). The call is stamped
// with a client-allocated trace id, reused across every retry, so all of
// a logical call's attempts share one server-side trace.
func (c *Client) Query(text string) (*Result, error) {
	trace := c.nextTrace()
	res, _, err := c.doRetry(trace, wire.FrameQuery, wire.EncodeQueryTrace(text, trace))
	return res, err
}

// Exec runs parameterized TMQL: params bind server-side into the $1..$n
// slots of text's cached plan. A placeholder stands only for a WHERE or
// HAVING operand; every parameter must be referenced. Any value kind
// binds, surrogate IDs (value.Ref) included, except NaN and ±Inf floats.
// Retries and traces like Query.
func (c *Client) Exec(text string, params ...value.V) (*Result, error) {
	trace := c.nextTrace()
	res, _, err := c.doRetry(trace, wire.FrameExec, wire.EncodeExecTrace(text, params, trace))
	return res, err
}

// Ping round-trips a liveness probe to the leader on a pooled connection.
func (c *Client) Ping() error {
	_, _, err := c.doRetry(0, wire.FramePing, nil)
	return err
}

// Session returns a dedicated connection for stateful use, always on the
// leader (session state — pins, time defaults — must see every commit the
// moment it lands). Its dial runs under the retry loop and fails over
// with it. Its Close closes the underlying connection rather than pooling
// it, because session options would leak into unrelated queries.
func (c *Client) Session() (*Session, error) {
	_, cn, err := c.doRetry(0, wire.FrameHello, nil)
	if err != nil {
		return nil, err
	}
	return &Session{cn: cn, c: c}, nil
}

// nextTrace allocates a client-side trace id from the seeded jitter rng:
// reproducible under a fixed JitterSeed (chaos runs), nonzero so servers
// never mistake a stamped call for an untraced one.
func (c *Client) nextTrace() uint64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	for {
		if t := c.rng.Uint64(); t != 0 {
			return t
		}
	}
}

// logf emits one optional client log line (retry/breaker decisions).
func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// nextReplica picks the next read endpoint round-robin.
func (c *Client) nextReplica() *endpoint {
	n := c.rr.Add(1)
	return c.replicas[int(n-1)%len(c.replicas)]
}

// failed reports whether an attempt's error is a transport failure or a
// server error carrying one of codes. A call on a closed client is
// neither. The loop asks it three questions: is the failure transient
// (sheds and drains), should a replica's call move to the leader
// (staleness and read-only refusals), and may the leadership have moved
// (fenced and read-only). Query errors and timeouts answer no to all
// three: they are the query's own fault and would fail anywhere.
func failed(err error, codes ...uint16) bool {
	var se *ServerError
	if errors.As(err, &se) {
		return slices.Contains(codes, se.Code)
	}
	return !errors.Is(err, errClosed)
}

// Epoch returns the highest leadership epoch this client has observed on
// any handshake or result (0 = none yet).
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// Leader returns the address leader-targeted traffic currently goes to.
// It starts as cfg.Addr and moves when failover finds a promoted node.
func (c *Client) Leader() string { return c.leader.Load().addr }

// noteEpoch records an observed epoch, logging when leadership moved.
func (c *Client) noteEpoch(e uint64) {
	for {
		cur := c.epoch.Load()
		if e <= cur {
			return
		}
		if c.epoch.CompareAndSwap(cur, e) {
			if cur != 0 {
				c.logf("client: observed epoch change %d -> %d", cur, e)
			}
			return
		}
	}
}

// failover probes every configured address for the highest-epoch writable
// node and re-points the leader endpoint at it. Ties go to the earliest
// address in probe order (Addr first, then Replicas), so every client
// with the same config picks the same winner during a double promotion.
// It reports whether a writable node was found. A probe is a dial that
// reads the Welcome's epoch and writability and closes; it never touches
// the pools. Sweeps are serialized, so a burst of failures re-points the
// leader once, but each failed caller still runs its own sweep in turn.
func (c *Client) failover(trace uint64) bool {
	if len(c.cfg.Replicas) == 0 {
		return false // nowhere to fail over to; plain retry covers Addr
	}
	c.failMu.Lock()
	defer c.failMu.Unlock()
	cur := c.leader.Load()
	var bestAddr string
	var bestEpoch uint64
	found := false
	for _, addr := range append([]string{c.cfg.Addr}, c.cfg.Replicas...) {
		cn, err := c.dial(&endpoint{addr: addr})
		if err != nil {
			c.logf("client: trace=%d failover probe %s: %v", trace, addr, err)
			continue
		}
		cn.quit()
		if !cn.writable {
			continue
		}
		// Strictly-greater keeps the earliest address on epoch ties.
		if !found || cn.epoch > bestEpoch {
			found, bestAddr, bestEpoch = true, addr, cn.epoch
		}
	}
	if !found {
		c.logf("client: trace=%d failover probe found no writable node", trace)
		return false
	}
	if bestAddr == cur.addr {
		c.logf("client: trace=%d failover probe: leader %s is writable at epoch %d, keeping it", trace, cur.addr, bestEpoch)
		return true
	}
	// A fresh endpoint (not the replica's) so leader traffic gets its own
	// pool without the replica handshake's max_staleness option.
	c.leader.Store(&endpoint{addr: bestAddr})
	c.failovers.Inc()
	c.logf("client: trace=%d FAILOVER: leader %s -> %s (epoch %d)", trace, cur.addr, bestAddr, bestEpoch)
	cur.mu.Lock()
	idle := cur.idle
	cur.idle = nil
	cur.mu.Unlock()
	for _, cn := range idle {
		cn.close()
	}
	return true
}

// doRetry is the client's one retry loop. trace is the call's trace id
// (0 for pings and sessions), carried into every log line for
// correlation. typ names the call: FrameQuery or FrameExec runs payload
// on a pooled connection, FramePing pings on one, and FrameHello — the
// handshake itself — dials a fresh leader connection and returns it for a
// Session. With replicas configured a query's first attempt goes to the
// next read replica; a stale or unreachable replica redirects the call to
// the leader for the remaining attempts. Pings and sessions go to the
// leader only. The breaker gates every leader attempt, and each one it
// admits records success or failure, so a half-open probe always
// resolves.
func (c *Client) doRetry(trace uint64, typ byte, payload []byte) (*Result, *conn, error) {
	backoff := c.cfg.RetryBackoff
	useLeader := len(c.replicas) == 0 || typ == wire.FramePing || typ == wire.FrameHello
	for attempt := 0; ; attempt++ {
		ep := c.leader.Load()
		if !useLeader {
			ep = c.nextReplica()
		} else if err := c.brk.allow(); err != nil {
			c.logf("client: trace=%d rejected: %v", trace, err)
			return nil, nil, err
		}
		// Leader attempts settle the breaker; a replica's failure says
		// nothing about the leader.
		res, cn, err := c.attempt(ep, typ, payload)
		if err == nil {
			if !ep.replica {
				c.brk.success()
			}
			if res != nil {
				c.noteEpoch(res.Epoch)
			}
			return res, cn, nil
		}
		var se *ServerError
		answered := errors.As(err, &se)
		if !ep.replica && answered {
			c.brk.success() // the server answered: the transport works
		} else if !ep.replica && !errors.Is(err, errClosed) && c.brk.failure() {
			c.logf("client: trace=%d breaker opened after %v", trace, err)
		}
		canRetry := failed(err, wire.CodeBusy, wire.CodeDraining)
		fellBack := false
		if !useLeader && failed(err, wire.CodeStale, wire.CodeReadOnly) {
			useLeader = true
			canRetry = true
			fellBack = true
			c.fallbacks.Inc()
			c.logf("client: trace=%d replica %s failed (%v); falling back to leader", trace, ep.addr, err)
		}
		failedOver := false
		if !ep.replica && failed(err, wire.CodeFenced, wire.CodeReadOnly) {
			// The leader is unreachable, fenced, or refusing writes: probe
			// the full replica set for the highest-epoch writable node and
			// re-route leader traffic there.
			if c.failover(trace) {
				useLeader = true
				canRetry = true
				failedOver = true
			}
		}
		if attempt >= c.cfg.QueryRetries || !canRetry {
			return nil, nil, err
		}
		if c.budget.Add(-1) < 0 {
			c.retryGiveups.Inc()
			c.logf("client: trace=%d retry budget exhausted after %v", trace, err)
			return nil, nil, err
		}
		delay := c.retryDelay(backoff, se)
		if fellBack && se != nil {
			// A staleness refusal says nothing about the leader's health;
			// redirect immediately instead of backing off.
			delay = 0
		}
		if failedOver {
			// The probe already spent wall clock finding a live leader.
			delay = 0
		}
		c.logf("client: trace=%d attempt %d failed (%v); retrying in %s", trace, attempt+1, err, delay)
		if !c.sleep(delay) {
			return nil, nil, errClosed
		}
		c.retries.Inc()
		if backoff *= 2; backoff > c.cfg.MaxBackoff {
			backoff = c.cfg.MaxBackoff
		}
	}
}

// attempt runs one attempt of a call on ep (see doRetry for typ). A
// pooled connection goes back to the pool unless the error left it
// unusable; a session's fresh connection is returned instead.
func (c *Client) attempt(ep *endpoint, typ byte, payload []byte) (*Result, *conn, error) {
	session := typ == wire.FrameHello
	cn, err := c.get(ep, session)
	if err != nil || session {
		return nil, cn, err
	}
	var res *Result
	if typ == wire.FramePing {
		err = cn.ping()
	} else {
		res, err = cn.query(typ, payload)
	}
	if err != nil && !isSessionUsable(err) {
		cn.close()
		return res, nil, err
	}
	c.put(ep, cn)
	return res, nil, err
}

// retryDelay computes the jittered backoff for the next attempt: at
// least max(backoff, server hint), plus up to half that again of seeded
// jitter so synchronized clients do not retry in lockstep.
func (c *Client) retryDelay(backoff time.Duration, se *ServerError) time.Duration {
	base := backoff
	if se != nil && se.RetryAfterMs > 0 {
		if hint := time.Duration(se.RetryAfterMs) * time.Millisecond; hint > base {
			base = hint
		}
	}
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(base/2) + 1))
	c.rngMu.Unlock()
	return base + j
}

// sleep blocks for d unless the client closes first; it reports whether
// the full duration elapsed.
func (c *Client) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.ctx.Done():
		return false
	}
}

// isSessionUsable reports whether the connection survives the error: the
// server keeps a session open across query-level failures and admission
// sheds (a shed says "later", not "goodbye").
func isSessionUsable(err error) bool {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Code == wire.CodeQuery || se.Code == wire.CodeTimeout || se.Code == wire.CodeBusy
	}
	return false
}

// get returns a connection to ep: an idle pooled one unless fresh is
// set, else one dial — a failed dial is a failed attempt of the call.
func (c *Client) get(ep *endpoint, fresh bool) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	c.mu.Unlock()
	ep.mu.Lock()
	if n := len(ep.idle); n > 0 && !fresh {
		cn := ep.idle[n-1]
		ep.idle = ep.idle[:n-1]
		ep.mu.Unlock()
		return cn, nil
	}
	ep.mu.Unlock()
	return c.dial(ep)
}

func (c *Client) put(ep *endpoint, cn *conn) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	ep.mu.Lock()
	if !closed && len(ep.idle) < c.cfg.PoolSize {
		ep.idle = append(ep.idle, cn)
		ep.mu.Unlock()
		return
	}
	ep.mu.Unlock()
	cn.close()
}

// dial makes one connection attempt including the Hello/Welcome
// handshake. Replica connections additionally set the "max_staleness"
// session option when the config bounds staleness, so the server sheds
// too-stale reads with CodeStale before running them.
func (c *Client) dial(ep *endpoint) (*conn, error) {
	raw, err := net.DialTimeout("tcp", ep.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", ep.addr, err)
	}
	cn := &conn{cfg: c.cfg, c: raw, r: bufio.NewReader(raw)}
	var staleness time.Duration
	if ep.replica {
		staleness = c.cfg.MaxStaleness
	}
	err = cn.handshake(staleness)
	c.noteEpoch(cn.epoch)
	if err != nil {
		cn.close()
		return nil, fmt.Errorf("client: dial %s: %w", ep.addr, err)
	}
	return cn, nil
}

func decodeServerError(payload []byte) error {
	code, msg, detail, retryAfter, err := wire.DecodeErrorRetry(payload)
	if err != nil {
		return fmt.Errorf("client: malformed error frame: %w", err)
	}
	return &ServerError{Code: code, Msg: msg, Detail: detail, RetryAfterMs: retryAfter}
}
