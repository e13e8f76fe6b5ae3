// Package chaos is the end-to-end network torture harness: seeded client
// workloads replayed through the netfault chaos proxy against a real
// server, with every scenario checked against in-process golden results.
// The contract under fault injection is strict — a query either returns
// results byte-identical to the fault-free run or a clean typed error;
// never a wrong answer, a panic, a hang past the watchdog, or a leaked
// connection.
//
// Every scenario is a deterministic function of the seed: byte-offset
// faults are exact, clients run sequentially with seeded jitter, and the
// report holds only seed-determined facts (scenario verdicts and the
// availability sweep), so two same-seed runs produce identical reports.
package chaos

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/fault"
	"tcodm/internal/netfault"
	"tcodm/internal/obs"
	"tcodm/internal/server"
	"tcodm/internal/wire"
	"tcodm/internal/workload"
	"tcodm/pkg/client"
)

// Config sizes one chaos run.
type Config struct {
	// Seed drives the workload, the fault schedule, and client jitter;
	// the whole run is a deterministic function of it.
	Seed int64
	// Short selects the deterministic CI subset (~60 scenarios).
	Short bool
	// MaxScenarios truncates the schedule (0 = all); test support.
	MaxScenarios int
	// Watchdog bounds one scenario's wall time (default 30s). A scenario
	// that outlives it is a hang violation.
	Watchdog time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Report is the deterministic outcome of a run: two same-seed runs must
// serialize to identical bytes.
type Report struct {
	Seed      int64            `json:"seed"`
	Short     bool             `json:"short"`
	Scenarios []ScenarioResult `json:"scenarios"`
	Summary   Summary          `json:"summary"`
	Sweep     []SweepPoint     `json:"availability_sweep"`

	// Stats are informational wall-clock-dependent aggregates, excluded
	// from the deterministic report payload.
	Stats Stats `json:"-"`
}

// ScenarioResult is one scenario's verdict: "ok" (every query returned
// the golden result, possibly after retries) or "error" (at least one
// query surfaced a clean typed error). Violations are reported
// separately and fail the run.
type ScenarioResult struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"`
}

// Summary aggregates verdicts.
type Summary struct {
	Total      int `json:"total"`
	OK         int `json:"ok"`
	Errors     int `json:"errors"`
	Violations int `json:"violations"`
}

// SweepPoint is one R-T8 availability measurement: the fraction of
// queries that completed correctly when every Nth connection is faulty.
type SweepPoint struct {
	FaultEvery   int     `json:"fault_every"` // 0 = no faults
	Queries      int     `json:"queries"`
	Correct      int     `json:"correct"`
	Availability float64 `json:"availability"`
}

// Stats are the nondeterministic extras: retry totals and wall time.
type Stats struct {
	Retries  uint64
	Sheds    uint64
	Elapsed  time.Duration
	Probe    probe
	Failures []string // violation details, mirrored from the run

	// SampleTrace is one formatted span tree captured by the trace-spans
	// scenario: a root "query" span with queue/exec/storage children and
	// exact resource totals. Durations make it wall-clock-dependent, so it
	// lives outside the deterministic report payload.
	SampleTrace string
}

type probe struct {
	C2S int64 // client-to-server bytes for the standard workload
	S2C int64 // server-to-client bytes
}

const verdictOK, verdictError = "ok", fault.VerdictError

// chaosQueries is the fixed read-only workload every scenario replays.
var chaosQueries = []string{
	`SELECT (name, salary) FROM Emp WHERE salary > 3000`,
	`SELECT (name) FROM Emp WHERE salary > 1000 ORDER BY name LIMIT 10`,
	`SELECT HISTORY(Emp.salary) FROM Emp DURING [0, 1000)`,
	`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff`,
}

// golden is one query's fault-free answer in comparable form.
type golden struct {
	text string
	cols []string
	rows []byte // wire-encoded row set: byte-identical comparison
	n    int
}

type env struct {
	seed   int64
	eng    *core.Engine
	addr   string
	golden []golden
	connsG *obs.Gauge

	// Overload scenarios need queries whose execution outlasts the Go
	// runtime's ~10ms async-preemption threshold — otherwise, on a
	// single-CPU host, session goroutines run their whole query without
	// yielding and the admission gate never observes concurrency. The
	// bigger engine is built lazily on first use and shared.
	overloadOnce sync.Once
	overloadEng  *core.Engine
	overloadErr  error
	heavy        golden

	retries atomic.Uint64
	sheds   atomic.Uint64

	sampleMu    sync.Mutex
	sampleTrace string // first complete span tree seen by trace-spans
}

// heavyQuery runs for tens of milliseconds against the overload engine.
const heavyQuery = `SELECT HISTORY(Emp.salary) FROM Emp DURING [0, 100000)`

func (e *env) overloadEngine() (*core.Engine, error) {
	e.overloadOnce.Do(func() {
		eng, err := personnelEngine(workload.PersonnelParams{
			Depts: 8, Emps: 3200, UpdatesPerEmp: 6, MovesPerEmp: 1, TimeStep: 10, Seed: e.seed,
		})
		if err != nil {
			e.overloadErr = err
			return
		}
		res, err := eng.Query(heavyQuery)
		if err != nil {
			eng.Close()
			e.overloadErr = err
			return
		}
		e.heavy = golden{
			text: heavyQuery,
			cols: res.Columns,
			rows: wire.EncodeResultRows(res.Rows),
			n:    len(res.Rows),
		}
		e.overloadEng = eng
	})
	return e.overloadEng, e.overloadErr
}

// Run executes the chaos matrix.
func Run(cfg Config) (*Report, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()

	eng, err := personnelEngine(workload.PersonnelParams{
		Depts: 3, Emps: 30, UpdatesPerEmp: 3, MovesPerEmp: 1, TimeStep: 10, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: building engine: %w", err)
	}
	defer eng.Close()

	e := &env{
		seed:   cfg.Seed,
		eng:    eng,
		connsG: eng.Metrics().Gauge("server.conns"),
	}
	defer func() {
		if oe := e.overloadEng; oe != nil {
			oe.Close()
		}
	}()
	for _, q := range chaosQueries {
		res, err := eng.Query(q)
		if err != nil {
			return nil, fmt.Errorf("chaos: golden %q: %w", q, err)
		}
		e.golden = append(e.golden, golden{
			text: q,
			cols: res.Columns,
			rows: wire.EncodeResultRows(res.Rows),
			n:    len(res.Rows),
		})
	}

	srv, err := serve(server.Config{Engine: eng, Banner: "tcochaos"})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	e.addr = srv.addr()

	// Probe: measure the fault-free per-direction byte streams so fault
	// offsets spread across the whole exchange.
	c2s, s2c, out := probeRun(e)
	if len(out.Violations) > 0 {
		return nil, fmt.Errorf("chaos: probe violated invariants: %s", out.Violations[0])
	}
	logf("probe: %d bytes client-to-server, %d server-to-client", c2s, s2c)

	scenarios := buildScenarios(e, c2s, s2c)
	if cfg.Short {
		kept := scenarios[:0]
		for _, sc := range scenarios {
			if sc.Short {
				kept = append(kept, sc)
			}
		}
		scenarios = kept
	}
	if cfg.MaxScenarios > 0 && len(scenarios) > cfg.MaxScenarios {
		scenarios = scenarios[:cfg.MaxScenarios]
	}

	rep := &Report{Seed: cfg.Seed, Short: cfg.Short}
	rep.Stats.Probe = probe{C2S: c2s, S2C: s2c}
	for i, out := range fault.Drive(scenarios, cfg.Watchdog, logf) {
		name := scenarios[i].Name
		rep.Scenarios = append(rep.Scenarios, ScenarioResult{Name: name, Verdict: out.Verdict})
		rep.Summary.Total++
		switch out.Verdict {
		case verdictOK:
			rep.Summary.OK++
		default:
			rep.Summary.Errors++
		}
		for _, v := range out.Violations {
			rep.Stats.Failures = append(rep.Stats.Failures, name+": "+v)
		}
		rep.Summary.Violations += len(out.Violations)
	}

	if rep.Sweep, err = availabilitySweep(e); err != nil {
		return nil, err
	}
	rep.Stats.Retries = e.retries.Load()
	rep.Stats.Sheds = e.sheds.Load()
	rep.Stats.SampleTrace = e.sampleTrace
	rep.Stats.Elapsed = time.Since(start)
	return rep, nil
}

// personnelEngine builds an in-memory engine loaded with the seeded
// personnel workload p.
func personnelEngine(p workload.PersonnelParams) (*core.Engine, error) {
	eng, err := core.Open(core.Options{})
	if err != nil {
		return nil, err
	}
	sch, err := workload.PersonnelSchema()
	if err == nil {
		err = workload.Install(eng, sch)
	}
	if err == nil {
		app := workload.NewEngineApplier(eng, 256)
		if _, err = workload.Apply(workload.Personnel(p), app); err == nil {
			err = app.Flush()
		}
	}
	if err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// loopback is a wire server on a loopback port.
type loopback struct {
	srv    *server.Server
	ln     net.Listener
	served chan error
	once   sync.Once
}

// serve starts a server for cfg on a fresh loopback port.
func serve(cfg server.Config) (*loopback, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &loopback{srv: srv, ln: ln, served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	return s, nil
}

func (s *loopback) addr() string { return s.ln.Addr().String() }

// stop drains the server and waits for Serve to return. Idempotent:
// failover scenarios stop a leader mid-body ("the leader dies") and their
// teardown stops it again.
func (s *loopback) stop() {
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.srv.Shutdown(ctx)
		<-s.served
	})
}

// clientTweaks parameterize the scenario client.
type clientTweaks struct {
	queryRetries    int
	readTimeout     time.Duration
	breakerFailures int // 0 = disabled for scenario determinism
	breakerCooldown time.Duration
	preSleep        map[int]time.Duration // query index -> sleep first
}

func (e *env) newClient(addr string, tw clientTweaks, seedOffset int64) (*client.Client, *obs.Registry, error) {
	if tw.queryRetries == 0 {
		tw.queryRetries = 5
	}
	if tw.breakerFailures == 0 {
		tw.breakerFailures = -1
	}
	if tw.readTimeout == 0 {
		// A corrupted length prefix can stall both ends of a frame
		// exchange; a finite read deadline turns the stall into a typed
		// timeout so the connection is discarded and retried.
		tw.readTimeout = 2 * time.Second
	}
	reg := obs.New()
	cl, err := client.New(client.Config{
		Addr:            addr,
		PoolSize:        1, // sequential per-connection determinism
		QueryRetries:    tw.queryRetries,
		RetryBackoff:    time.Millisecond,
		MaxBackoff:      20 * time.Millisecond,
		RetryBudget:     -1,
		BreakerFailures: tw.breakerFailures,
		BreakerCooldown: tw.breakerCooldown,
		ReadTimeout:     tw.readTimeout,
		JitterSeed:      e.seed + seedOffset,
		Metrics:         reg,
	})
	return cl, reg, err
}

// checkResult compares a remote result against the golden answer.
func checkResult(g golden, res *client.Result) error {
	if len(res.Columns) != len(g.cols) {
		return fmt.Errorf("columns %v, want %v", res.Columns, g.cols)
	}
	for i := range g.cols {
		if res.Columns[i] != g.cols[i] {
			return fmt.Errorf("column %d = %q, want %q", i, res.Columns[i], g.cols[i])
		}
	}
	if len(res.Rows) != g.n {
		return fmt.Errorf("%d rows, want %d", len(res.Rows), g.n)
	}
	if !bytes.Equal(wire.EncodeResultRows(res.Rows), g.rows) {
		return fmt.Errorf("rows differ from the golden result byte-for-byte")
	}
	return nil
}

// runWorkload replays the standard queries through a proxy scripted with
// scriptFor and applies the chaos contract: correct result or typed
// error, never a wrong answer; no leaked connection afterwards.
func (e *env) runWorkload(scriptFor func(i int) netfault.Script, tw clientTweaks) fault.Outcome {
	out := fault.Outcome{Verdict: verdictOK}

	proxy, err := netfault.NewProxy(e.addr, e.seed, scriptFor)
	if err != nil {
		out.Verdict = verdictError
		out.Bad("proxy: %v", err)
		return out
	}
	cl, reg, err := e.newClient(proxy.Addr(), tw, 1)
	if err != nil {
		proxy.Close()
		out.Verdict = verdictError
		out.Bad("client: %v", err)
		return out
	}

	for qi, g := range e.golden {
		if d := tw.preSleep[qi]; d > 0 {
			time.Sleep(d)
		}
		res, err := cl.Query(g.text)
		if err != nil {
			// A typed error is an allowed outcome; record and continue on
			// a fresh footing (the client discards broken connections).
			out.Verdict = verdictError
			continue
		}
		if cerr := checkResult(g, res); cerr != nil {
			out.Bad("query %d returned a WRONG ANSWER under faults: %v", qi, cerr)
		}
	}
	e.retries.Add(reg.Counters()["client.retry"])
	cl.Close()

	// Leak checks: the proxy's live connections and the server's session
	// gauge must both drain once the client is gone.
	deadline := time.Now().Add(5 * time.Second)
	for proxy.Conns() != 0 || e.connsG.Value() != 0 {
		if time.Now().After(deadline) {
			out.Bad("leak: %d proxied conns, server gauge %d after client close", proxy.Conns(), e.connsG.Value())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	proxy.Close()
	return out
}

// probeRun measures the fault-free per-direction byte streams; the
// server-to-client one by replyLen, so the offsets placed along it are a
// function of the seed alone.
func probeRun(e *env) (c2s, s2c int64, out fault.Outcome) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		out.Bad("probe listen: %v", err)
		return 0, 0, out
	}
	var up, down atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", e.addr)
			if err != nil {
				c.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var inner sync.WaitGroup
				inner.Add(2)
				go func() { defer inner.Done(); n, _ := io.Copy(b, c); up.Add(n); b.Close(); c.Close() }()
				go func() {
					defer inner.Done()
					var reply bytes.Buffer
					io.Copy(io.MultiWriter(c, &reply), b)
					down.Add(replyLen(reply.Bytes()))
					b.Close()
					c.Close()
				}()
				inner.Wait()
			}()
		}
	}()

	cl, _, err := e.newClient(ln.Addr().String(), clientTweaks{queryRetries: -1}, 0)
	if err != nil {
		out.Bad("probe client: %v", err)
		ln.Close()
		wg.Wait()
		return 0, 0, out
	}
	out.Verdict = verdictOK
	for qi, g := range e.golden {
		res, err := cl.Query(g.text)
		if err != nil {
			out.Bad("probe query %d failed fault-free: %v", qi, err)
			continue
		}
		if cerr := checkResult(g, res); cerr != nil {
			out.Bad("probe query %d mismatched golden fault-free: %v", qi, cerr)
		}
	}
	cl.Close()
	ln.Close()
	wg.Wait()
	return up.Load(), down.Load(), out
}

// replyLen is the length of a recorded server-to-client stream with each
// ResultDone's elapsed time counted at its one-byte minimum. The elapsed
// nanoseconds are the one field of a reply that timing decides: their
// uvarint grows a byte with every factor of 128. Never more than the
// stream's real length, so every offset derived from it lies inside the
// stream.
func replyLen(stream []byte) int64 {
	n := int64(len(stream))
	var buf [binary.MaxVarintLen64]byte
	for len(stream) > 0 {
		f, used, err := wire.DecodeFrame(stream)
		if err != nil {
			break
		}
		stream = stream[used:]
		if f.Type != wire.FrameResultDone {
			continue
		}
		if d, err := wire.DecodeResultDone(f.Payload); err == nil {
			n -= int64(binary.PutUvarint(buf[:], uint64(d.Elapsed)) - 1)
		}
	}
	return n
}

// spread returns n 1-based offsets spread evenly across [1, total].
func spread(n int, total int64) []int64 {
	if total < 1 {
		total = 1
	}
	offs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		off := 1 + int64(i)*(total-1)/int64(max(1, n-1))
		offs = append(offs, off)
	}
	return offs
}

// buildScenarios assembles the full matrix. Each entry is deterministic
// under (seed, scenario); short entries form the CI subset.
func buildScenarios(e *env, c2s, s2c int64) []fault.Scenario {
	var scs []fault.Scenario
	add := func(name string, short bool, run func() fault.Outcome) {
		scs = append(scs, fault.Scenario{Name: name, Short: short, Run: run})
	}

	// Family A: one byte-offset fault on the FIRST connection only; a
	// retrying client must recover to the exact golden results.
	// Family B: the fault on EVERY connection with retries disabled; the
	// outcome is a typed error (or ok when the offset lies beyond the
	// bytes a single exchange moves).
	type dir struct {
		name string
		len  int64
		pipe func(ps netfault.PipeScript) netfault.Script
	}
	dirs := []dir{
		{"c2s", c2s, func(ps netfault.PipeScript) netfault.Script { return netfault.Script{Read: ps} }},
		{"s2c", s2c, func(ps netfault.PipeScript) netfault.Script { return netfault.Script{Write: ps} }},
	}
	type flt struct {
		name string
		ps   func(off int64) netfault.PipeScript
	}
	faults := []flt{
		{"corrupt", func(off int64) netfault.PipeScript { return netfault.PipeScript{CorruptAt: off} }},
		{"reset", func(off int64) netfault.PipeScript { return netfault.PipeScript{ResetAt: off} }},
		{"freeze", func(off int64) netfault.PipeScript {
			return netfault.PipeScript{FreezeAt: off, FreezeFor: 50 * time.Millisecond}
		}},
	}
	for _, d := range dirs {
		for _, f := range faults {
			for oi, off := range spread(11, d.len) {
				d, f, off := d, f, off
				add(fmt.Sprintf("%s-%s@%d-first", d.name, f.name, off), oi%2 == 0, func() fault.Outcome {
					return e.runWorkload(func(i int) netfault.Script {
						if i == 0 {
							return d.pipe(f.ps(off))
						}
						return netfault.Script{}
					}, clientTweaks{})
				})
				add(fmt.Sprintf("%s-%s@%d-all", d.name, f.name, off), oi%8 == 0, func() fault.Outcome {
					return e.runWorkload(func(i int) netfault.Script {
						return d.pipe(f.ps(off))
					}, clientTweaks{queryRetries: -1})
				})
			}
		}
	}

	// Timing faults: latency, jitter, bandwidth caps, forced chunking —
	// results must stay golden, only slower.
	timing := []struct {
		name string
		sc   netfault.Script
	}{
		{"latency", netfault.Script{
			Read:  netfault.PipeScript{Latency: 2 * time.Millisecond},
			Write: netfault.PipeScript{Latency: 2 * time.Millisecond},
		}},
		{"jitter", netfault.Script{
			Read:  netfault.PipeScript{Latency: time.Millisecond, Jitter: 3 * time.Millisecond},
			Write: netfault.PipeScript{Latency: time.Millisecond, Jitter: 3 * time.Millisecond},
		}},
		{"bandwidth", netfault.Script{
			Write: netfault.PipeScript{BandwidthBPS: 256 << 10, ChunkMax: 512},
		}},
		{"chunk1", netfault.Script{
			Read:  netfault.PipeScript{ChunkMax: 1},
			Write: netfault.PipeScript{ChunkMax: 7},
		}},
		{"chunk-jitter", netfault.Script{
			Read:  netfault.PipeScript{ChunkMax: 3, Jitter: time.Millisecond},
			Write: netfault.PipeScript{ChunkMax: 13, Jitter: time.Millisecond},
		}},
		{"slow-every-conn", netfault.Script{
			Read:  netfault.PipeScript{Latency: time.Millisecond, ChunkMax: 64},
			Write: netfault.PipeScript{Latency: time.Millisecond, ChunkMax: 64, BandwidthBPS: 512 << 10},
		}},
	}
	for _, tm := range timing {
		tm := tm
		add("timing-"+tm.name, true, func() fault.Outcome {
			out := e.runWorkload(func(int) netfault.Script { return tm.sc }, clientTweaks{})
			if out.Verdict != verdictOK && len(out.Violations) == 0 {
				out.Bad("timing fault %s produced an error; timing must never break a query", tm.name)
			}
			return out
		})
	}

	// Accept-time refusals: the first k dials die at accept.
	for _, k := range []int{1, 2, 3} {
		k := k
		add(fmt.Sprintf("refuse-first-%d", k), true, func() fault.Outcome {
			out := e.runWorkload(func(i int) netfault.Script {
				return netfault.Script{RefuseAccept: i < k}
			}, clientTweaks{})
			if out.Verdict != verdictOK && len(out.Violations) == 0 {
				out.Bad("client failed to dial past %d refused accepts", k)
			}
			return out
		})
	}
	add("refuse-all", true, func() fault.Outcome {
		out := e.runWorkload(func(int) netfault.Script {
			return netfault.Script{RefuseAccept: true}
		}, clientTweaks{queryRetries: -1})
		if out.Verdict != verdictError {
			out.Bad("every accept refused yet the workload reported %q", out.Verdict)
		}
		return out
	})
	add("refuse-alternate", true, func() fault.Outcome {
		return e.runWorkload(func(i int) netfault.Script {
			return netfault.Script{RefuseAccept: i%2 == 0}
		}, clientTweaks{})
	})

	// Freeze past the client's read deadline: a stalled stream must
	// surface as a typed timeout, not a hang.
	for _, d := range dirs {
		d := d
		add("freeze-timeout-"+d.name, true, func() fault.Outcome {
			out := e.runWorkload(func(int) netfault.Script {
				return d.pipe(netfault.PipeScript{FreezeAt: d.len / 3, FreezeFor: 600 * time.Millisecond})
			}, clientTweaks{queryRetries: -1, readTimeout: 100 * time.Millisecond})
			if out.Verdict != verdictError {
				out.Bad("600ms freeze under a 100ms read deadline reported %q", out.Verdict)
			}
			return out
		})
	}

	// Mixed faults: corruption or resets under degraded timing.
	combos := []struct {
		name string
		sc   netfault.Script
	}{
		{"corrupt-latency", netfault.Script{
			Write: netfault.PipeScript{CorruptAt: s2c / 2, Latency: time.Millisecond, ChunkMax: 128},
		}},
		{"reset-chunked", netfault.Script{
			Write: netfault.PipeScript{ResetAt: s2c / 2, ChunkMax: 9},
		}},
		{"corrupt-both-dirs", netfault.Script{
			Read:  netfault.PipeScript{CorruptAt: c2s / 2},
			Write: netfault.PipeScript{CorruptAt: s2c / 3},
		}},
		{"reset-early-corrupt-late", netfault.Script{
			Read:  netfault.PipeScript{ResetAt: c2s / 4},
			Write: netfault.PipeScript{CorruptAt: s2c - 1},
		}},
	}
	for _, cb := range combos {
		cb := cb
		add("combo-"+cb.name+"-first", true, func() fault.Outcome {
			return e.runWorkload(func(i int) netfault.Script {
				if i == 0 {
					return cb.sc
				}
				return netfault.Script{}
			}, clientTweaks{})
		})
		add("combo-"+cb.name+"-all", false, func() fault.Outcome {
			return e.runWorkload(func(int) netfault.Script { return cb.sc },
				clientTweaks{queryRetries: -1})
		})
	}

	// Tracing: every non-shed query must leave a complete span tree in
	// the server tracer — root "query" with queue, exec, and at least one
	// storage-accounting child — whose totals match what came back on the
	// wire. Runs fault-free and under degraded timing: faults slow
	// queries, they must never produce half-recorded traces.
	add("trace-spans", true, func() fault.Outcome {
		return e.traceScenario(netfault.Script{})
	})
	add("trace-spans-chunked", false, func() fault.Outcome {
		return e.traceScenario(netfault.Script{
			Read:  netfault.PipeScript{ChunkMax: 5},
			Write: netfault.PipeScript{ChunkMax: 11},
		})
	})

	// Breaker: consecutive dial failures must open the circuit (fail
	// fast), and a healthy server after the cooldown must close it again.
	add("breaker-trips-open", true, func() fault.Outcome {
		return e.breakerTripScenario()
	})
	add("breaker-recovers", false, func() fault.Outcome {
		return e.breakerRecoverScenario()
	})

	// Overload: a saturated admission gate must shed with CodeBusy and
	// retry hints, and retrying clients must still finish correctly.
	for _, workers := range []int{4, 8, 16} {
		workers := workers
		add(fmt.Sprintf("overload-%d-workers", workers), workers == 8, func() fault.Outcome {
			return e.overloadScenario(workers)
		})
	}

	// Replication faults: WAL shipping under partition, crash, restart,
	// and degraded links — convergence and the TT-prefix property.
	scs = append(scs, replScenarios(e)...)

	// Leader failover: promotion, epoch fencing, divergent-suffix discard,
	// double-promotion races, and client re-routing.
	scs = append(scs, failoverScenarios(e)...)

	return scs
}

// traceScenario checks the observability contract end to end: each golden
// query's trace id travels client → wire → server, names a complete span
// tree in the server tracer, and the resource totals on the wire equal
// the totals the root span accounted. The first complete tree is kept as
// the run's sample trace.
func (e *env) traceScenario(sc netfault.Script) fault.Outcome {
	out := fault.Outcome{Verdict: verdictOK}

	proxy, err := netfault.NewProxy(e.addr, e.seed, func(int) netfault.Script { return sc })
	if err != nil {
		out.Verdict = verdictError
		out.Bad("proxy: %v", err)
		return out
	}
	defer proxy.Close()
	cl, _, err := e.newClient(proxy.Addr(), clientTweaks{}, 4)
	if err != nil {
		out.Verdict = verdictError
		out.Bad("client: %v", err)
		return out
	}
	defer cl.Close()

	for qi, g := range e.golden {
		res, err := cl.Query(g.text)
		if err != nil {
			out.Verdict = verdictError
			continue
		}
		if cerr := checkResult(g, res); cerr != nil {
			out.Bad("query %d wrong answer: %v", qi, cerr)
			continue
		}
		if res.Trace == 0 {
			out.Bad("query %d completed without a trace id", qi)
			continue
		}
		evs := e.eng.Tracer().Trace(res.Trace)
		spans := make(map[string]obs.Event, len(evs))
		for _, ev := range evs {
			spans[ev.Name] = ev
		}
		root, ok := spans["query"]
		if !ok || root.Parent != 0 {
			out.Bad("query %d trace %d: no root query span", qi, res.Trace)
			continue
		}
		if q, ok := spans["queue"]; !ok || q.Parent != root.Span {
			out.Bad("query %d trace %d: queue span missing or misparented", qi, res.Trace)
		}
		exec, ok := spans["exec"]
		if !ok || exec.Parent != root.Span {
			out.Bad("query %d trace %d: exec span missing or misparented", qi, res.Trace)
			continue
		}
		if st, ok := spans["storage"]; !ok || st.Parent != exec.Span {
			out.Bad("query %d trace %d: no storage child under exec", qi, res.Trace)
		}
		if root.Res != res.Res {
			out.Bad("query %d trace %d: root accounted %s but the wire reported %s",
				qi, res.Trace, root.Res, res.Res)
		}
		if res.Res.IsZero() {
			out.Bad("query %d trace %d: resource totals all zero", qi, res.Trace)
		}
		e.sampleMu.Lock()
		if e.sampleTrace == "" {
			e.sampleTrace = fmt.Sprintf("query: %s\n%s", g.text, obs.FormatTrace(evs))
		}
		e.sampleMu.Unlock()
	}
	return out
}

func (e *env) breakerTripScenario() fault.Outcome {
	out := fault.Outcome{Verdict: verdictError} // this scenario's deterministic endpoint
	proxy, err := netfault.NewProxy(e.addr, e.seed, func(int) netfault.Script {
		return netfault.Script{RefuseAccept: true}
	})
	if err != nil {
		out.Bad("proxy: %v", err)
		return out
	}
	defer proxy.Close()
	cl, _, err := e.newClient(proxy.Addr(), clientTweaks{
		queryRetries:    -1,
		breakerFailures: 2, breakerCooldown: time.Hour,
	}, 2)
	if err != nil {
		out.Bad("client: %v", err)
		return out
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		if err := cl.Ping(); err == nil || errors.Is(err, client.ErrBreakerOpen) {
			out.Bad("refused dial %d: got %v", i, err)
		}
	}
	if err := cl.Ping(); !errors.Is(err, client.ErrBreakerOpen) {
		out.Bad("after %d failures the breaker must fail fast, got %v", 2, err)
	}
	if got := proxy.Accepted(); got != 2 {
		out.Bad("breaker open yet the client dialed: %d accepts, want 2", got)
	}
	return out
}

func (e *env) breakerRecoverScenario() fault.Outcome {
	out := fault.Outcome{Verdict: verdictError} // the trip phase errors; recovery is checked explicitly
	proxy, err := netfault.NewProxy(e.addr, e.seed, func(i int) netfault.Script {
		return netfault.Script{RefuseAccept: i < 2}
	})
	if err != nil {
		out.Bad("proxy: %v", err)
		return out
	}
	defer proxy.Close()
	cl, _, err := e.newClient(proxy.Addr(), clientTweaks{
		queryRetries:    -1,
		breakerFailures: 2, breakerCooldown: 30 * time.Millisecond,
	}, 3)
	if err != nil {
		out.Bad("client: %v", err)
		return out
	}
	defer cl.Close()
	cl.Ping() // failure 1
	cl.Ping() // failure 2: open
	if err := cl.Ping(); !errors.Is(err, client.ErrBreakerOpen) {
		out.Bad("expected an open breaker, got %v", err)
	}
	time.Sleep(50 * time.Millisecond) // cooldown elapses
	g := e.golden[0]
	res, err := cl.Query(g.text)
	if err != nil {
		out.Bad("half-open probe against a healthy server failed: %v", err)
		return out
	}
	if cerr := checkResult(g, res); cerr != nil {
		out.Bad("post-recovery result: %v", cerr)
	}
	return out
}

// overloadScenario saturates a tiny admission gate with concurrent
// retrying clients: every query must still complete correctly, and the
// server must have shed at least once.
func (e *env) overloadScenario(workers int) fault.Outcome {
	out := fault.Outcome{Verdict: verdictOK}

	oeng, err := e.overloadEngine()
	if err != nil {
		out.Verdict = verdictError
		out.Bad("overload engine: %v", err)
		return out
	}
	srv, err := serve(server.Config{
		Engine:         oeng,
		MaxActive:      1,
		MaxQueueDepth:  1,
		MaxQueueWait:   time.Nanosecond, // any queueing collision sheds
		RetryAfterHint: 5 * time.Millisecond,
	})
	if err != nil {
		out.Verdict = verdictError
		out.Bad("server: %v", err)
		return out
	}
	defer srv.stop()

	shedC := oeng.Metrics().Counter("server.shed")
	shedBefore := shedC.Value()
	const queriesPerWorker = 3
	var wg sync.WaitGroup
	var retries atomic.Uint64
	errs := make(chan string, workers*queriesPerWorker)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, reg, err := e.newClient(srv.addr(), clientTweaks{queryRetries: 500}, int64(10+w))
			if err != nil {
				errs <- fmt.Sprintf("worker %d client: %v", w, err)
				return
			}
			defer cl.Close()
			<-start
			for q := 0; q < queriesPerWorker; q++ {
				res, err := cl.Query(e.heavy.text)
				if err != nil {
					errs <- fmt.Sprintf("worker %d query %d failed despite retries: %v", w, q, err)
					continue
				}
				if cerr := checkResult(e.heavy, res); cerr != nil {
					errs <- fmt.Sprintf("worker %d query %d wrong under overload: %v", w, q, cerr)
				}
			}
			retries.Add(reg.Counters()["client.retry"])
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for msg := range errs {
		out.Bad("%s", msg)
	}
	sheds := shedC.Value() - shedBefore
	if sheds == 0 {
		out.Bad("overload with %d workers through a 1-wide gate never shed", workers)
	}
	e.sheds.Add(sheds)
	e.retries.Add(retries.Load())
	return out
}

// splitmix64 is a tiny seeded mixer used to scatter faulty connection
// indices pseudo-randomly (so consecutive connections can both be
// faulty) while staying a pure function of the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// availabilitySweep is experiment R-T8: availability (fraction of
// queries that complete correctly) as the connection fault rate rises.
// Each query runs on a fresh client with two retries, so a query fails
// only when three consecutive connections are all faulty — the measured
// curve is the resilience the retry layer buys. Everything is
// sequential and seed-driven, so each point is deterministic. A proxy or
// client the sweep cannot build fails the run: a dropped point or a
// query never sent would change the curve without a violation.
func availabilitySweep(e *env) ([]SweepPoint, error) {
	points := []int{0, 16, 8, 4, 2} // 1-in-N connections faulty; 0 = none
	var sweep []SweepPoint
	for pi, every := range points {
		const rounds = 6
		correct, total := 0, 0
		var next atomic.Int64 // global accept index across all clients
		proxy, err := netfault.NewProxy(e.addr, e.seed+int64(pi), func(i int) netfault.Script {
			if every > 0 && splitmix64(uint64(e.seed)+uint64(i)*2654435761)%uint64(every) == 0 {
				// Alternate silent corruption and mid-frame resets across
				// the faulty population.
				if splitmix64(uint64(i))%2 == 0 {
					return netfault.Script{Write: netfault.PipeScript{CorruptAt: 100}}
				}
				return netfault.Script{Read: netfault.PipeScript{ResetAt: 48}}
			}
			return netfault.Script{}
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: availability sweep, faults 1/%d: proxy: %w", every, err)
		}
		for r := 0; r < rounds; r++ {
			for _, g := range e.golden {
				total++
				cl, _, err := e.newClient(proxy.Addr(), clientTweaks{queryRetries: 2}, int64(100+pi)+next.Add(1))
				if err != nil {
					proxy.Close()
					return nil, fmt.Errorf("chaos: availability sweep, faults 1/%d: client: %w", every, err)
				}
				res, err := cl.Query(g.text)
				if err == nil && checkResult(g, res) == nil {
					correct++
				}
				cl.Close()
			}
		}
		proxy.Close()
		sweep = append(sweep, SweepPoint{
			FaultEvery:   every,
			Queries:      total,
			Correct:      correct,
			Availability: float64(correct) / float64(total),
		})
	}
	return sweep, nil
}
