package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/wire"
	"tcodm/internal/workload"
	"tcodm/pkg/client"
)

// TestStalenessBoundary pins the max_staleness contract at its edge: a
// replica lagging EXACTLY the bound is served; one nanosecond past it is
// refused with CodeStale — in both directions, on the same session.
func TestStalenessBoundary(t *testing.T) {
	eng := personnelEngine(t)
	var lagNS atomic.Int64
	addr := startServer(t, eng, func(c *Config) {
		c.Staleness = func() time.Duration { return time.Duration(lagNS.Load()) }
	})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Option("max_staleness", "100ms"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT (name) FROM Emp WHERE salary > 4000`

	// Exactly at the bound: served.
	lagNS.Store(int64(100 * time.Millisecond))
	if _, err := sess.Query(q); err != nil {
		t.Fatalf("lag == bound refused: %v", err)
	}
	// One nanosecond past: typed CodeStale.
	lagNS.Store(int64(100*time.Millisecond) + 1)
	_, err = sess.Query(q)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeStale {
		t.Fatalf("lag just past bound: got %v, want CodeStale", err)
	}
	// The session survives the refusal and serves once the replica
	// catches back up — including the zero-lag case of a promoted leader.
	lagNS.Store(0)
	if _, err := sess.Query(q); err != nil {
		t.Fatalf("session dead after CodeStale: %v", err)
	}
}

// TestMaxStalenessRefusedOnLeader: the option is replica-only; a leader
// (no staleness source) rejects it without killing the session. Installing
// a staleness source afterwards — what promotion does — makes the same
// option succeed, with the zero-lag leader always serving.
func TestMaxStalenessRefusedOnLeader(t *testing.T) {
	eng := personnelEngine(t)
	cfg := Config{Engine: eng, Banner: "tcoserve/test"}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close() })

	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	_, err = sess.Option("max_staleness", "50ms")
	var se *client.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "not a replica") {
		t.Fatalf("max_staleness on a leader: got %v, want 'not a replica'", err)
	}
	// The session survived the refused option.
	if _, err := sess.Query(`SELECT (name) FROM Emp WHERE salary > 4000`); err != nil {
		t.Fatalf("session dead after refused option: %v", err)
	}

	// Dynamic role change: a promoted follower installs a zero-lag
	// staleness source on its running server; the option now works.
	srv.SetStaleness(func() time.Duration { return 0 })
	if _, err := sess.Option("max_staleness", "50ms"); err != nil {
		t.Fatalf("max_staleness after SetStaleness: %v", err)
	}
	if _, err := sess.Query(`SELECT (name) FROM Emp WHERE salary > 4000`); err != nil {
		t.Fatalf("zero-lag leader refused a bounded-staleness read: %v", err)
	}
}

// adminHandshake dials addr raw and completes the Hello/Welcome exchange,
// returning the conn, a buffered reader, and the decoded welcome.
func adminHandshake(t *testing.T, addr string) (net.Conn, *bufio.Reader, wire.WelcomeInfo) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	if err := wire.WriteFrame(raw, wire.FrameHello, wire.EncodeHello("test-admin/1")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	f, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameWelcome {
		t.Fatalf("handshake frame = 0x%02x, want Welcome", f.Type)
	}
	info, err := wire.DecodeWelcomeInfo(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return raw, br, info
}

func TestWelcomeAdvertisesEpochAndWritable(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)
	_, _, info := adminHandshake(t, addr)
	if info.Epoch != 0 {
		t.Errorf("welcome epoch = %d, want 0", info.Epoch)
	}
	if !info.Writable {
		t.Error("read-write leader advertised Writable=false")
	}
}

func TestAdminFrameDisabledByDefault(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)
	raw, br, _ := adminHandshake(t, addr)
	if err := wire.WriteFrame(raw, wire.FrameAdmin, wire.EncodeAdmin("epoch")); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError {
		t.Fatalf("admin on hook-less server: frame 0x%02x, want Error", f.Type)
	}
	code, msg, _, err := wire.DecodeError(f.Payload)
	if err != nil || code != wire.CodeQuery || !strings.Contains(msg, "not enabled") {
		t.Fatalf("admin refusal = %d %q (%v)", code, msg, err)
	}
	// A refused admin command is not a protocol violation: the session
	// still answers queries.
	if err := wire.WriteFrame(raw, wire.FrameQuery, wire.EncodeQueryTrace(`SELECT (name) FROM Emp WHERE salary > 4000`, 0)); err != nil {
		t.Fatal(err)
	}
	for {
		f, err = wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("session dead after refused admin: %v", err)
		}
		if f.Type == wire.FrameError {
			t.Fatalf("query failed after refused admin: %v", f.Payload)
		}
		if f.Type == wire.FrameResultDone {
			break
		}
	}
}

func TestAdminFrameRunsHook(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, func(c *Config) {
		c.Admin = func(cmd string) (string, error) {
			if cmd == "epoch" {
				return "epoch 0", nil
			}
			return "", errors.New("unknown admin command")
		}
	})
	raw, br, _ := adminHandshake(t, addr)

	// Known command: Ack with the hook's result.
	if err := wire.WriteFrame(raw, wire.FrameAdmin, wire.EncodeAdmin("epoch")); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameAck {
		t.Fatalf("admin result frame = 0x%02x, want Ack", f.Type)
	}
	if got, err := wire.DecodeAck(f.Payload); err != nil || got != "epoch 0" {
		t.Fatalf("admin ack = %q, %v", got, err)
	}

	// Hook error: CodeQuery, session survives for the next command.
	if err := wire.WriteFrame(raw, wire.FrameAdmin, wire.EncodeAdmin("nonsense")); err != nil {
		t.Fatal(err)
	}
	f, err = wire.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError {
		t.Fatalf("bad admin command: frame 0x%02x, want Error", f.Type)
	}
	if err := wire.WriteFrame(raw, wire.FrameAdmin, wire.EncodeAdmin("epoch")); err != nil {
		t.Fatal(err)
	}
	if f, err = wire.ReadFrame(br); err != nil || f.Type != wire.FrameAck {
		t.Fatalf("session dead after admin error: %v (frame 0x%02x)", err, f.Type)
	}
}

// promotedEngine opens a follower engine, promotes it to epoch 1, and
// loads the same personnel dataset the leader carries — a stand-in for a
// replica that converged before the leader died.
func promotedEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.Open(core.Options{Path: filepath.Join(t.TempDir(), "promoted"), Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Promote(0); err != nil {
		t.Fatal(err)
	}
	sch, err := workload.PersonnelSchema()
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Install(eng, sch); err != nil {
		t.Fatal(err)
	}
	app := workload.NewEngineApplier(eng, 256)
	ops := workload.Personnel(workload.PersonnelParams{
		Depts: 4, Emps: 60, UpdatesPerEmp: 4, MovesPerEmp: 1, TimeStep: 10, Seed: 42,
	})
	if _, err := workload.Apply(ops, app); err != nil {
		t.Fatal(err)
	}
	if err := app.Flush(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestClientFailoverToPromotedReplica is the client side of the failover
// arc: the leader dies, the next leader-targeted call probes the replica
// set, finds the promoted (epoch 1, writable) node, and re-routes — and
// the epoch change is visible on the client and on every Result.
func TestClientFailoverToPromotedReplica(t *testing.T) {
	leaderEng := personnelEngine(t)
	srvL, err := New(Config{Engine: leaderEng, Banner: "leader/test"})
	if err != nil {
		t.Fatal(err)
	}
	lnL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	servedL := make(chan error, 1)
	go func() { servedL <- srvL.Serve(lnL) }()
	leaderAddr := lnL.Addr().String()

	promoted := promotedEngine(t)
	replicaAddr := startServer(t, promoted, func(c *Config) {
		c.Banner = "promoted/test"
		c.Staleness = func() time.Duration { return 0 }
	})

	cl, err := client.New(client.Config{
		Addr:         leaderAddr,
		Replicas:     []string{replicaAddr},
		RetryBackoff: time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Healthy leader first: leader-targeted sessions land on cfg.Addr.
	// (Epoch may already read 1 — the replica's handshake advertises it —
	// but leadership has not moved.)
	sess0, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	sess0.Close()
	if cl.Leader() != leaderAddr {
		t.Fatalf("pre-failover leader = %s, want %s", cl.Leader(), leaderAddr)
	}

	// The leader dies.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvL.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-servedL; err != nil {
		t.Fatal(err)
	}

	// The next leader-targeted call must fail over, not fail.
	sess1, err := cl.Session()
	if err != nil {
		t.Fatalf("session after leader death: %v", err)
	}
	sess1.Close()
	if cl.Leader() != replicaAddr {
		t.Fatalf("leader after failover = %s, want %s", cl.Leader(), replicaAddr)
	}
	if cl.Epoch() != 1 {
		t.Fatalf("observed epoch after failover = %d, want 1", cl.Epoch())
	}

	// Results now carry the new epoch.
	res, err := cl.Exec(`SELECT (name) FROM Emp WHERE salary > 4000`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Fatalf("Result.Epoch = %d, want 1", res.Epoch)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows from the promoted node")
	}

	// Sessions dial the new leader too.
	sess, err := cl.Session()
	if err != nil {
		t.Fatalf("session after failover: %v", err)
	}
	defer sess.Close()
	if _, err := sess.Query(`SELECT (name) FROM Emp WHERE salary > 4000`); err != nil {
		t.Fatalf("session query on new leader: %v", err)
	}
}
