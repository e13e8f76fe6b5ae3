package chaos

// Replication chaos: the leader/follower WAL-shipping pipeline driven
// through the same netfault proxy as the query scenarios. The contract
// mirrors the paper's transaction-time semantics — a follower is always
// a consistent transaction-time PREFIX of the leader: convergence is
// checked with logical store digests, and the prefix property is checked
// by replaying the leader's log group-by-group and comparing every
// intermediate follower state against the leader "as of" the follower's
// clock.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/fault"
	"tcodm/internal/netfault"
	"tcodm/internal/repl"
	"tcodm/internal/schema"
	"tcodm/internal/server"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/wal"
	"tcodm/internal/wire"
)

// replQuery is the probe every replication scenario compares across the
// leader/follower pair. The explicit AT pins valid time so both sides
// slice identically regardless of their clocks.
const replQuery = `SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary >= 0 AT 0`

// replLab is one leader: a file-backed engine behind a real wire server
// with replication enabled, plus a commit driver.
type replLab struct {
	dir     string
	leader  *core.Engine
	srv     *loopback
	seq     int      // names of the leader's commits
	onClose []func() // run in reverse order at teardown, before the leader stops
}

func openReplLeader(path string) (*core.Engine, error) {
	eng, err := core.Open(core.Options{Path: path, TimeIndex: true})
	if err != nil {
		return nil, err
	}
	// A reopened leader already has the type; only define it once.
	if err := eng.DefineAtomType(schema.AtomType{
		Name: "Emp",
		Attrs: []schema.Attribute{
			{Name: "name", Kind: value.KindString, Required: true},
			{Name: "salary", Kind: value.KindInt, Temporal: true},
		},
	}); err != nil && !isExists(err) {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

func isExists(err error) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte("already defined"))
}

func newReplLab() (*replLab, error) {
	dir, err := os.MkdirTemp("", "tcochaos-repl-")
	if err != nil {
		return nil, err
	}
	l := &replLab{dir: dir}
	if l.leader, err = openReplLeader(filepath.Join(dir, "leader")); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if l.srv, err = serveLeader(l.leader, nil); err != nil {
		l.leader.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return l, nil
}

// serveLeader serves eng with replication enabled. A promoted node passes
// a zero staleness probe, so replica-dialed sessions keep max_staleness.
func serveLeader(eng *core.Engine, staleness func() time.Duration) (*loopback, error) {
	return serve(server.Config{
		Engine:    eng,
		Banner:    "tcochaos-repl",
		Repl:      &repl.Source{Engine: eng, Heartbeat: 20 * time.Millisecond},
		Staleness: staleness,
	})
}

func zeroLag() time.Duration { return 0 }

func (l *replLab) addr() string { return l.srv.addr() }

func (l *replLab) close() {
	for i := len(l.onClose) - 1; i >= 0; i-- {
		l.onClose[i]()
	}
	l.srv.stop()
	l.leader.Close()
	os.RemoveAll(l.dir)
}

// commit appends n single-insert transactions to any writable engine,
// named prefix and *seq; seq persists across calls so names never collide.
func commit(eng *core.Engine, prefix string, seq *int, n int) error {
	for i := 0; i < n; i++ {
		*seq++
		tx, err := eng.Begin()
		if err != nil {
			return err
		}
		if _, err := tx.Insert("Emp", map[string]value.V{
			"name":   value.String_(fmt.Sprintf("%s%04d", prefix, *seq)),
			"salary": value.Int(int64(1000 + *seq)),
		}, 0); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// caughtUp commits n transactions to the leader and starts a follower at
// dir/f1 that has replicated them; the lab closes it at teardown. It
// returns nil once it has recorded a violation.
func (l *replLab) caughtUp(n int, out *fault.Outcome) *repl.Follower {
	if err := commit(l.leader, "e", &l.seq, n); err != nil {
		out.Bad("commit: %v", err)
		return nil
	}
	f, cancel, err := startFollower(l.addr, filepath.Join(l.dir, "f1"), false)
	if err != nil {
		out.Bad("follower: %v", err)
		return nil
	}
	l.onClose = append(l.onClose, func() { cancel(); f.Close() })
	if !waitConverged(f, l.leader, out) {
		return nil
	}
	return f
}

// startFollower starts a replica at path that dials addr (usually the lab
// leader or a netfault proxy in front of it); force requests a snapshot
// rejoin (the operator demotion path).
func startFollower(addr func() string, path string, force bool) (*repl.Follower, context.CancelFunc, error) {
	f, err := repl.StartFollower(repl.FollowerConfig{
		Leader: "lab",
		Path:   path,
		Dial: func(ctx context.Context, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr())
		},
		ReadTimeout:   time.Second,
		Backoff:       20 * time.Millisecond,
		ForceSnapshot: force,
	})
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	go f.Run(ctx)
	return f, cancel, nil
}

// waitConverged polls until f's watermark reaches the target engine's
// appended LSN and the logical store digests agree.
func waitConverged(f *repl.Follower, target *core.Engine, out *fault.Outcome) bool {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if f.Watermark() == target.Log().AppendedLSN() {
			td, err := target.DigestStore()
			if err != nil {
				out.Bad("target digest: %v", err)
				return false
			}
			fd, err := f.Engine().DigestStore()
			if err == nil && bytes.Equal(td, fd) {
				return true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	out.Bad("follower stuck at watermark %d, target at %d", f.Watermark(), target.Log().AppendedLSN())
	return false
}

// replScenario wraps a scenario body with lab setup/teardown.
func replScenario(body func(l *replLab, out *fault.Outcome)) func() fault.Outcome {
	return func() fault.Outcome {
		out := fault.Outcome{Verdict: verdictOK}
		l, err := newReplLab()
		if err != nil {
			out.Verdict = verdictError
			out.Bad("repl lab: %v", err)
			return out
		}
		defer l.close()
		body(l, &out)
		if len(out.Violations) > 0 {
			out.Verdict = verdictError
		}
		return out
	}
}

// replScenarios is the replication fault family.
func replScenarios(e *env) []fault.Scenario {
	var scs []fault.Scenario
	add := func(name string, short bool, run func() fault.Outcome) {
		scs = append(scs, fault.Scenario{Name: name, Short: short, Run: run})
	}

	// Clean link: stream, converge, and stay converged across later commits.
	add("repl-converge-direct", true, replScenario(func(l *replLab, out *fault.Outcome) {
		f := l.caughtUp(20, out)
		if f == nil {
			return
		}
		if s := f.Staleness(); s > 5*time.Second {
			out.Bad("caught-up follower reports staleness %v", s)
		}
		if err := commit(l.leader, "e", &l.seq, 10); err != nil {
			out.Bad("commit: %v", err)
			return
		}
		waitConverged(f, l.leader, out)
	}))

	// Degraded links: chunked and slow streams must still converge — the
	// frame layer owns reassembly, replication only sees whole frames.
	links := []struct {
		name  string
		short bool
		sc    netfault.Script
	}{
		{"chunked", true, netfault.Script{
			Read:  netfault.PipeScript{ChunkMax: 3},
			Write: netfault.PipeScript{ChunkMax: 7},
		}},
		{"slow", false, netfault.Script{
			Write: netfault.PipeScript{Latency: time.Millisecond, Jitter: 2 * time.Millisecond, ChunkMax: 256},
		}},
	}
	for _, lk := range links {
		lk := lk
		add("repl-link-"+lk.name, lk.short, replScenario(func(l *replLab, out *fault.Outcome) {
			proxy, err := netfault.NewProxy(l.addr(), 1, func(int) netfault.Script { return lk.sc })
			if err != nil {
				out.Bad("proxy: %v", err)
				return
			}
			defer proxy.Close()
			if err := commit(l.leader, "e", &l.seq, 15); err != nil {
				out.Bad("commit: %v", err)
				return
			}
			f, cancel, err := startFollower(proxy.Addr, filepath.Join(l.dir, "f1"), false)
			if err != nil {
				out.Bad("follower: %v", err)
				return
			}
			defer func() { cancel(); f.Close() }()
			if !waitConverged(f, l.leader, out) {
				return
			}
			if err := commit(l.leader, "e", &l.seq, 15); err != nil {
				out.Bad("commit: %v", err)
				return
			}
			waitConverged(f, l.leader, out)
		}))
	}

	// Partition: the first subscription is reset mid-stream; the follower
	// must redial and converge from its watermark — no restart, no resync
	// from scratch.
	add("repl-partition-heals", true, replScenario(func(l *replLab, out *fault.Outcome) {
		proxy, err := netfault.NewProxy(l.addr(), 2, func(i int) netfault.Script {
			if i == 0 {
				return netfault.Script{Write: netfault.PipeScript{ResetAt: 2000}}
			}
			return netfault.Script{}
		})
		if err != nil {
			out.Bad("proxy: %v", err)
			return
		}
		defer proxy.Close()
		if err := commit(l.leader, "e", &l.seq, 30); err != nil {
			out.Bad("commit: %v", err)
			return
		}
		f, cancel, err := startFollower(proxy.Addr, filepath.Join(l.dir, "f1"), false)
		if err != nil {
			out.Bad("follower: %v", err)
			return
		}
		defer func() { cancel(); f.Close() }()
		if !waitConverged(f, l.leader, out) {
			return
		}
		if proxy.Accepted() < 2 {
			out.Bad("converged without reconnecting through the reset (%d accepts)", proxy.Accepted())
		}
	}))

	// Follower crash mid-replay: kill the follower while the stream is
	// live, restart on the same directory. The restarted watermark must
	// not regress (replicated state is durable), and it must converge.
	add("repl-follower-crash-mid-replay", true, replScenario(func(l *replLab, out *fault.Outcome) {
		if err := commit(l.leader, "e", &l.seq, 40); err != nil {
			out.Bad("commit: %v", err)
			return
		}
		fpath := filepath.Join(l.dir, "f1")
		f, cancel, err := startFollower(l.addr, fpath, false)
		if err != nil {
			out.Bad("follower: %v", err)
			return
		}
		// Wait for replay to be underway (not necessarily done), then kill.
		deadline := time.Now().Add(10 * time.Second)
		for f.Watermark() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		wm := f.Watermark()
		if wm == 0 {
			out.Bad("follower never started applying")
			cancel()
			f.Close()
			return
		}
		cancel()
		f.Close()

		if err := commit(l.leader, "e", &l.seq, 10); err != nil {
			out.Bad("commit: %v", err)
			return
		}
		f2, cancel2, err := startFollower(l.addr, fpath, false)
		if err != nil {
			out.Bad("restarted follower: %v", err)
			return
		}
		defer func() { cancel2(); f2.Close() }()
		if got := f2.Engine().Watermark(); got < wm {
			out.Bad("watermark regressed across restart: %d -> %d", wm, got)
		}
		waitConverged(f2, l.leader, out)
	}))

	// Leader restart: the leader process goes away and comes back on a new
	// port; the follower redials (through the address indirection) and
	// converges on the post-restart history.
	add("repl-leader-restart", false, replScenario(func(l *replLab, out *fault.Outcome) {
		var addr atomic.Value
		addr.Store(l.addr())
		if err := commit(l.leader, "e", &l.seq, 10); err != nil {
			out.Bad("commit: %v", err)
			return
		}
		f, cancel, err := startFollower(func() string { return addr.Load().(string) }, filepath.Join(l.dir, "f1"), false)
		if err != nil {
			out.Bad("follower: %v", err)
			return
		}
		defer func() { cancel(); f.Close() }()
		if !waitConverged(f, l.leader, out) {
			return
		}

		l.srv.stop()
		if err := l.leader.Close(); err != nil {
			out.Bad("leader close: %v", err)
			return
		}
		l.leader, err = openReplLeader(filepath.Join(l.dir, "leader"))
		if err != nil {
			out.Bad("leader reopen: %v", err)
			return
		}
		if l.srv, err = serveLeader(l.leader, nil); err != nil {
			out.Bad("leader restart: %v", err)
			return
		}
		addr.Store(l.addr())
		if err := commit(l.leader, "e", &l.seq, 10); err != nil {
			out.Bad("commit after restart: %v", err)
			return
		}
		waitConverged(f, l.leader, out)
	}))

	// Watermark consistency (the TT-prefix property): replay the leader's
	// log commit group by commit group into an engine-level follower. After
	// every group the follower must answer the probe exactly as the leader
	// does "as of" the follower's clock — a replica is never a smeared
	// state, always a clean transaction-time prefix. Pure in-process
	// replay: fully deterministic, no network.
	add("repl-watermark-consistency", true, func() fault.Outcome {
		out := fault.Outcome{Verdict: verdictOK}
		dir, err := os.MkdirTemp("", "tcochaos-repl-wm-")
		if err != nil {
			out.Verdict = verdictError
			out.Bad("tempdir: %v", err)
			return out
		}
		defer os.RemoveAll(dir)
		leader, err := openReplLeader(filepath.Join(dir, "leader"))
		if err != nil {
			out.Verdict = verdictError
			out.Bad("leader: %v", err)
			return out
		}
		defer leader.Close()
		// A burst of commits, then group-wise replay.
		seq := 0
		if err := commit(leader, "e", &seq, 25); err != nil {
			out.Verdict = verdictError
			out.Bad("commit: %v", err)
			return out
		}
		cur := leader.Log().Cursor(1)
		recs, err := cur.Read(1 << 20)
		if err != nil {
			out.Verdict = verdictError
			out.Bad("cursor: %v", err)
			return out
		}
		fw, err := core.Open(core.Options{Path: filepath.Join(dir, "follower"), Follower: true})
		if err != nil {
			out.Verdict = verdictError
			out.Bad("follower engine: %v", err)
			return out
		}
		defer fw.Close()

		group := recs[:0:0]
		for _, r := range recs {
			group = append(group, r)
			if r.Op != wal.OpCommit {
				continue
			}
			if _, err := fw.ApplyReplicated(group); err != nil {
				out.Bad("apply group ending at LSN %d: %v", r.LSN, err)
				break
			}
			group = group[:0]
			t := fw.Now()
			if t == 0 {
				// Only schema groups applied so far: the follower clock has
				// not advanced, and TT 0 is the "latest" sentinel, not a
				// point — nothing to compare yet.
				continue
			}
			fres, err := fw.Query(replQuery)
			if err != nil {
				out.Bad("follower query at watermark %d: %v", fw.Watermark(), err)
				break
			}
			tt := temporal.Instant(t)
			lres, err := leader.QueryWith(context.Background(), replQuery, core.QueryOptions{TT: &tt})
			if err != nil {
				out.Bad("leader asof %v: %v", t, err)
				break
			}
			if !bytes.Equal(wire.EncodeResultRows(fres.Rows), wire.EncodeResultRows(lres.Rows)) {
				out.Bad("PREFIX VIOLATION at watermark %d: follower state is not the leader asof %v (%d vs %d rows)",
					fw.Watermark(), t, len(fres.Rows), len(lres.Rows))
				break
			}
		}
		if len(out.Violations) > 0 {
			out.Verdict = verdictError
		}
		return out
	})

	return scs
}
