package repl

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/schema"
	"tcodm/internal/value"
	"tcodm/internal/wire"
)

func openLeader(t *testing.T, dir string) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Options{Path: filepath.Join(dir, "leader"), TimeIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.DefineAtomType(schema.AtomType{
		Name: "Emp",
		Attrs: []schema.Attribute{
			{Name: "name", Kind: value.KindString, Required: true},
			{Name: "salary", Kind: value.KindInt, Temporal: true},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func commit(t *testing.T, e *core.Engine, name string, salary int64) value.ID {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	id, err := tx.Insert("Emp", map[string]value.V{
		"name": value.String_(name), "salary": value.Int(salary),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return id
}

// leaderDialer fakes the wire server's replication hand-off over net.Pipe:
// each dial performs the Hello/Welcome handshake, reads Subscribe, and
// hands the connection to the Source.
func leaderDialer(ctx context.Context, src *Source) func(context.Context, string) (net.Conn, error) {
	return func(context.Context, string) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			br := bufio.NewReader(server)
			if fr, err := wire.ReadFrame(br); err != nil || fr.Type != wire.FrameHello {
				return
			}
			if err := wire.WriteFrame(server, wire.FrameWelcome, wire.EncodeWelcomeInfo(wire.WelcomeInfo{Banner: "test", Session: 1})); err != nil {
				return
			}
			fr, err := wire.ReadFrame(br)
			if err != nil || fr.Type != wire.FrameSubscribe {
				return
			}
			req, err := wire.DecodeSubscribeReq(fr.Payload)
			if err != nil {
				return
			}
			src.Serve(ctx, server, req)
		}()
		return client, nil
	}
}

func waitConverged(t *testing.T, f *Follower, leader *core.Engine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if f.Watermark() == leader.Log().AppendedLSN() {
			ld, err := leader.DigestStore()
			if err != nil {
				t.Fatal(err)
			}
			fd, err := f.Engine().DigestStore()
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(ld, fd) {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower did not converge: watermark %d, leader %d", f.Watermark(), leader.Log().AppendedLSN())
}

func TestReplicationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	leader := openLeader(t, dir)
	commit(t, leader, "a", 100)
	commit(t, leader, "b", 200)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &Source{Engine: leader, Heartbeat: 20 * time.Millisecond}
	f, err := StartFollower(FollowerConfig{
		Leader: "pipe", Path: filepath.Join(dir, "follower"),
		Dial:    leaderDialer(ctx, src),
		Backoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	go f.Run(ctx)

	waitConverged(t, f, leader)
	if f.Staleness() > 5*time.Second {
		t.Errorf("caught-up follower reports staleness %v", f.Staleness())
	}

	// The stream keeps flowing: later commits arrive without resubscribing.
	commit(t, leader, "c", 300)
	commit(t, leader, "d", 400)
	waitConverged(t, f, leader)

	// Follower answers queries at its watermark.
	res, err := f.Engine().Query(`SELECT (Emp.name) FROM Emp WHERE Emp.salary >= 300 AT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("follower rows = %v", res.Rows)
	}
}

func TestSnapshotBootstrapOverWire(t *testing.T) {
	dir := t.TempDir()
	leader := openLeader(t, dir)
	commit(t, leader, "a", 100)
	// Checkpoint truncates the log: a fresh follower cannot start at LSN 1
	// and must be seeded with a snapshot.
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commit(t, leader, "b", 200)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &Source{Engine: leader, Heartbeat: 20 * time.Millisecond, ChunkSize: 4096}
	var swaps atomic.Int32
	f, err := StartFollower(FollowerConfig{
		Leader: "pipe", Path: filepath.Join(dir, "follower"),
		Dial:    leaderDialer(ctx, src),
		Backoff: 20 * time.Millisecond,
		OnSwap:  func(old, next *core.Engine) { swaps.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	go f.Run(ctx)

	waitConverged(t, f, leader)
	if swaps.Load() != 1 {
		t.Errorf("snapshot bootstraps = %d, want 1", swaps.Load())
	}
	// And the stream continues past the snapshot.
	commit(t, leader, "c", 300)
	waitConverged(t, f, leader)
}

func TestFollowerReconnects(t *testing.T) {
	dir := t.TempDir()
	leader := openLeader(t, dir)
	commit(t, leader, "a", 100)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &Source{Engine: leader, Heartbeat: 20 * time.Millisecond}
	dial := leaderDialer(ctx, src)
	var conns atomic.Int32
	var lastConn atomic.Value // net.Conn
	f, err := StartFollower(FollowerConfig{
		Leader: "pipe", Path: filepath.Join(dir, "follower"),
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			c, err := dial(ctx, addr)
			if err == nil {
				conns.Add(1)
				lastConn.Store(c)
			}
			return c, err
		},
		Backoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	go f.Run(ctx)

	waitConverged(t, f, leader)
	// Sever the link mid-life; the follower must redial and keep applying.
	lastConn.Load().(net.Conn).Close()
	commit(t, leader, "b", 200)
	waitConverged(t, f, leader)
	if conns.Load() < 2 {
		t.Errorf("dials = %d, want a reconnect", conns.Load())
	}
}

func TestFollowerRestartResumesFromLocalLog(t *testing.T) {
	dir := t.TempDir()
	leader := openLeader(t, dir)
	commit(t, leader, "a", 100)

	ctx, cancel := context.WithCancel(context.Background())
	src := &Source{Engine: leader, Heartbeat: 20 * time.Millisecond}
	fpath := filepath.Join(dir, "follower")
	f, err := StartFollower(FollowerConfig{
		Leader: "pipe", Path: fpath,
		Dial:    leaderDialer(ctx, src),
		Backoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go f.Run(ctx)
	waitConverged(t, f, leader)
	wm := f.Watermark()
	cancel()
	time.Sleep(20 * time.Millisecond) // let Run observe cancellation
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the local database carries the replicated state; the new
	// subscription resumes from the stored watermark, not from scratch.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	src2 := &Source{Engine: leader, Heartbeat: 20 * time.Millisecond}
	f2, err := StartFollower(FollowerConfig{
		Leader: "pipe", Path: fpath,
		Dial:    leaderDialer(ctx2, src2),
		Backoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Watermark() != wm {
		t.Errorf("restarted watermark = %d, want %d", f2.Watermark(), wm)
	}
	go f2.Run(ctx2)
	commit(t, leader, "b", 200)
	waitConverged(t, f2, leader)
}
