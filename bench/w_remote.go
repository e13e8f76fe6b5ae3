package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/obs"
	"tcodm/internal/query"
	"tcodm/internal/server"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/pkg/client"
)

// remote_point statements. The AT instant is part of the statement text;
// the employee name is a bind parameter.
const (
	stmtNow     = `SELECT (name, salary) FROM Emp WHERE name = $1 LIMIT 1`
	stmtAt      = `SELECT (name, salary) FROM Emp WHERE name = $1 LIMIT 1 AT %d`
	stmtHistory = `SELECT HISTORY(Emp.salary) FROM Emp WHERE Emp.name = $1 DURING [0, 10000)`
)

const (
	kindNow = iota
	kindAt
	kindHistory
)

// remoteClients is the load generator's size: two clients in total, fixed,
// not scaled with the host.
const remoteClients = 2

type pointOp struct {
	kind int
	emp  int
	vt   temporal.Instant
}

func (op pointOp) statement() string {
	switch op.kind {
	case kindAt:
		return fmt.Sprintf(stmtAt, op.vt)
	case kindHistory:
		return stmtHistory
	}
	return stmtNow
}

// pointGen draws the remote_point mix: 70 % NOW reads, 20 % reads at a
// uniform past valid time, 10 % salary histories, employees Zipf(1.1)
// through a seeded permutation (so the hot keys are spread over the store).
type pointGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newPointGen(seed int64, stream, emps int) *pointGen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(stream) + 1))
	return &pointGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(emps-1)),
		perm: rand.New(rand.NewSource(seed)).Perm(emps)}
}

func (g *pointGen) next() pointOp {
	op := pointOp{emp: g.perm[g.zipf.Uint64()]}
	switch r := g.rng.Intn(10); {
	case r < 7:
		op.kind, op.vt = kindNow, nowVT
	case r < 9:
		op.kind, op.vt = kindAt, temporal.Instant(g.rng.Int63n(int64(horizon)+1))
	default:
		op.kind = kindHistory
	}
	return op
}

// remoteEnv is a served personnel-L store with one pooled client.
type remoteEnv struct {
	st     *store
	db     *core.Engine
	srv    *server.Server
	served chan error
	ln     *countingListener
	cl     *client.Client
	clReg  *obs.Registry
}

func openRemote(cfg runConfig) (*remoteEnv, error) {
	st, err := buildStore(filepath.Join(cfg.dir, "personnel-L"), personnelL(cfg.scale), cfg.seed)
	if err != nil {
		return nil, err
	}
	db, err := core.Open(engineOptions(st.path, st.spec.strategy, fitsPool, false))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: db})
	if err != nil {
		db.Close()
		return nil, err
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	env := &remoteEnv{st: st, db: db, srv: srv, served: make(chan error, 1),
		ln: &countingListener{Listener: inner}, clReg: obs.New()}
	go func() { env.served <- srv.Serve(env.ln) }()
	env.cl, err = client.New(client.Config{Addr: inner.Addr().String(), PoolSize: remoteClients,
		Metrics: env.clReg})
	if err == nil {
		err = env.cl.Ping()
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (e *remoteEnv) close() error {
	if e.cl != nil {
		e.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	<-e.served
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// exec sends one operation through the client, times it, and checks the
// reply against the oracle.
func (e *remoteEnv) exec(op pointOp) (*client.Result, time.Duration, error) {
	stmt, name := op.statement(), value.String_(e.st.oracle.names[op.emp])
	t0 := time.Now()
	res, err := e.cl.Exec(stmt, name)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	return res, d, checkPoint(e.st.oracle, op, res.Rows)
}

// checkPoint compares one reply's rows with the oracle.
func checkPoint(o *oracle, op pointOp, rows [][]value.V) error {
	name := o.names[op.emp]
	if op.kind == kindHistory {
		var got []step
		for _, row := range rows {
			// columns: id, salary, valid_from, valid_to
			got = append(got, step{row[2].AsInstant(), row[1].AsInt()})
		}
		if want := coalesce(o.salary[op.emp]); !equalSteps(coalesce(got), want) {
			return fmt.Errorf("history of %s: got %v, want %v", name, got, want)
		}
		return nil
	}
	if len(rows) != 1 || len(rows[0]) != 2 {
		return fmt.Errorf("%s at %d: got %d rows", name, op.vt, len(rows))
	}
	if g, w := rows[0][0].AsString(), name; g != w {
		return fmt.Errorf("%s at %d: got name %q", name, op.vt, g)
	}
	if g, w := rows[0][1].AsInt(), o.salaryAt(op.emp, op.vt); g != w {
		return fmt.Errorf("%s at %d: got salary %d, want %d", name, op.vt, g, w)
	}
	return nil
}

func runRemotePoint(cfg runConfig) (*result, error) {
	if cfg.trace {
		return traceRemotePoint(cfg)
	}
	r := newResult(cfg)
	t0 := time.Now()
	env, err := openRemote(cfg)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	var w window
	var tl tally
	lats := make([]samples, remoteClients)
	workers := make([]func(), remoteClients)
	for g := range workers {
		gen := newPointGen(cfg.seed, g, len(env.st.empIDs))
		workers[g] = func() {
			w.closedLoop(&lats[g], &tl, func() (time.Duration, error) {
				_, d, err := env.exec(gen.next())
				return d, err
			}, nil)
		}
	}
	elapsed, alloc := w.run(cfg.seconds, workers...)

	if err := env.close(); err != nil {
		return nil, err
	}
	stored, err := storedBytes(env.st.path)
	if err != nil {
		return nil, err
	}
	tl.into(r)
	all := merge(lats)
	return r, finishEndToEnd(r, setup, len(all), elapsed, all, 0.99, alloc, len(all), stored, env.st.userBytes)
}

// --- traced run ---------------------------------------------------------------

// countingListener counts the bytes of every accepted connection, the
// bench-owned source of wire.bytes_per_op.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func traceRemotePoint(cfg runConfig) (*result, error) {
	r := newResult(cfg)
	env, err := openRemote(cfg)
	if err != nil {
		return nil, err
	}
	o := env.st.oracle
	gen := newPointGen(cfg.seed, 0, len(env.st.empIDs))
	ops := make([]pointOp, cfg.n(20000))
	for i := range ops {
		ops[i] = gen.next()
	}
	var tl tally
	// pass runs the fixed op list through the client; tr == nil is the
	// untraced pass.
	pass := func(tr *tracer, list []pointOp) (time.Duration, obs.Resources, int) {
		var res obs.Resources
		rows := 0
		t0 := time.Now()
		for i, op := range list {
			id := tr.begin("client.exec", "", 0, i)
			reply, _, err := env.exec(op)
			tr.end(id)
			tl.check(err)
			if reply != nil {
				res.Add(reply.Res)
				rows += len(reply.Rows)
			}
		}
		return time.Since(t0), res, rows
	}
	pass(nil, ops[:len(ops)/10]) // fill the pool and the connection
	untraced1, _, _ := pass(nil, ops)

	tr := newTracer()
	before, bytes0 := snapshot(env.db.Metrics()), env.ln.bytes.Load()
	retries0 := env.clReg.Counter("client.retry").Value()
	traced, res, rows := pass(tr, ops)
	d := snapshot(env.db.Metrics()).delta(before)
	wireBytes := env.ln.bytes.Load() - bytes0
	untraced2, _, _ := pass(nil, ops)
	n := uint64(len(ops))

	l := layerSet{}
	commonLayers(l, d, n)
	l["client.exec_us_p50"] = us(tr.durations("client.exec", "").quantile(0.5))
	l["client.retries_per_op"] = perOp(env.clReg.Counter("client.retry").Value()-retries0, n)
	l["wire.bytes_per_op"] = perOp(uint64(wireBytes), n)
	l["server.queue_wait_us_p99"] = us(int64(d.h["server.queue_wait_ns"].P99))
	l["server.shed_per_op"] = perOp(d.c["server.shed"], n)
	l["query.atoms_per_row"] = perOp(res.Atoms, uint64(rows))
	l["obs.trace_overhead_ratio"] = overheadRatio(untraced1, traced, untraced2)

	// Descent: the same inputs at the next entry points down, each span
	// the child of the request's client.exec span.
	ctx := context.Background()
	var texts []string // bound statements for the parse probe
	for i, op := range ops {
		bound, err := query.Bind(op.statement(), []value.V{value.String_(o.names[op.emp])})
		if err != nil {
			return nil, err
		}
		if len(texts) < 1000 {
			texts = append(texts, bound)
		}
		q := tr.begin("core.query", "", i+1, i)
		qr, err := env.db.QueryWith(ctx, bound, core.QueryOptions{})
		tr.end(q)
		if err == nil {
			err = checkPoint(o, op, qr.Rows)
		}
		tl.check(err)
		id := env.st.empIDs[op.emp]
		if op.kind == kindHistory {
			a := tr.begin("atom.history", "", q, i)
			_, err = env.db.Atoms().History(id, "salary", atom.Now)
			tr.end(a)
		} else {
			label := "now"
			if op.kind == kindAt {
				label = "past"
			}
			a := tr.begin("atom.state_at", label, q, i)
			_, err = env.db.Atoms().StateAt(id, op.vt, atom.Now)
			tr.end(a)
		}
		tl.check(err)
	}
	l["core.query_us_p50"] = us(tr.durations("core.query", "").quantile(0.5))
	l["server.overhead_us_p50"] = l["client.exec_us_p50"] - l["core.query_us_p50"]
	l["atom.state_at_now_us"] = usF(tr.durations("atom.state_at", "now").mean())
	l["atom.state_at_past_us"] = usF(tr.durations("atom.state_at", "past").mean())
	l["atom.history_us"] = usF(tr.durations("atom.history", "").mean())

	var pings samples
	for i := 0; i < cfg.n(2000); i++ {
		t0 := time.Now()
		err := env.cl.Ping()
		pings.add(time.Since(t0))
		tl.check(err)
	}
	l["wire.ping_rtt_us_p50"] = us(pings.sorted().quantile(0.5))

	if l["query.parse_us"], err = probeParse(texts); err != nil {
		return nil, err
	}
	l["wire.frame_codec_ns"] = probeFrameCodec(stmtNow, o.names[0])
	if err := storeLayers(l, cfg, env.db, env.st); err != nil {
		return nil, err
	}
	if err := env.close(); err != nil {
		return nil, err
	}
	return sealTraced(cfg, r, l, tr, &tl)
}
