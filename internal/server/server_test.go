package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/query"
	"tcodm/internal/value"
	"tcodm/internal/wire"
	"tcodm/internal/workload"
	"tcodm/pkg/client"
)

// startServer serves eng on an ephemeral port and returns the address.
// The server is drained at test cleanup.
func startServer(t *testing.T, eng *core.Engine, mutate func(*Config)) string {
	addr, _ := startServerFull(t, eng, mutate)
	return addr
}

func personnelEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
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

// TestRoundTripMatchesInProcess is the golden test: the same TMQL over
// the wire and in-process must produce identical columns and rows.
func TestRoundTripMatchesInProcess(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, func(c *Config) { c.BatchRows = 7 }) // force multi-batch streaming

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	queries := []string{
		`SELECT (name, salary) FROM Emp WHERE salary > 3000`,
		`SELECT (name) FROM Emp WHERE salary > 1000 ORDER BY name LIMIT 10`,
		`SELECT HISTORY(Emp.salary) FROM Emp DURING [0, 1000)`,
		`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff`,
	}
	for _, q := range queries {
		remote, err := cl.Query(q)
		if err != nil {
			t.Fatalf("%s: remote: %v", q, err)
		}
		local, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: local: %v", q, err)
		}
		if len(remote.Columns) != len(local.Columns) {
			t.Fatalf("%s: columns %v vs %v", q, remote.Columns, local.Columns)
		}
		for i := range local.Columns {
			if remote.Columns[i] != local.Columns[i] {
				t.Fatalf("%s: column %d: %q vs %q", q, i, remote.Columns[i], local.Columns[i])
			}
		}
		if len(remote.Rows) != len(local.Rows) {
			t.Fatalf("%s: %d remote rows vs %d local", q, len(remote.Rows), len(local.Rows))
		}
		for i := range local.Rows {
			for j := range local.Rows[i] {
				if remote.Rows[i][j] != local.Rows[i][j] {
					t.Fatalf("%s: row %d col %d: %v vs %v", q, i, j, remote.Rows[i][j], local.Rows[i][j])
				}
			}
		}
	}
}

func TestExecParamsOverWire(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	bound, err := cl.Exec(`SELECT (name, salary) FROM Emp WHERE salary > $1`, value.Int(3000))
	if err != nil {
		t.Fatal(err)
	}
	lit, err := cl.Query(`SELECT (name, salary) FROM Emp WHERE salary > 3000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(bound.Rows) != len(lit.Rows) || len(bound.Rows) == 0 {
		t.Fatalf("bound %d rows, literal %d rows", len(bound.Rows), len(lit.Rows))
	}

	// A bad binding is a query error the engine returns after admission:
	// it counts in server.query_errors and the connection survives it. A
	// Query frame binds zero parameters.
	for _, c := range []struct {
		params []value.V
		want   string
	}{
		{[]value.V{value.Int(1)}, "placeholder $2 out of range (have 1 parameters)"},
		{nil, "placeholder $2 out of range (have 0 parameters)"},
	} {
		errs0 := eng.CounterSnapshot()["server.query_errors"]
		const text = `SELECT (name) FROM Emp WHERE salary > $2`
		if c.params == nil {
			_, err = cl.Query(text)
		} else {
			_, err = cl.Exec(text, c.params...)
		}
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeQuery || !strings.Contains(se.Msg, c.want) {
			t.Fatalf("bind error = %v, want CodeQuery %q", err, c.want)
		}
		if got := eng.CounterSnapshot()["server.query_errors"] - errs0; got != 1 {
			t.Fatalf("server.query_errors rose by %d on a bind error, want 1", got)
		}
		if err := cl.Ping(); err != nil {
			t.Fatalf("connection unusable after bind error: %v", err)
		}
	}
}

// TestExecBindsSurrogateIDs: an ID parameter binds into its slot, though
// TMQL has no ID literal, and answers what a scan filtered on the ID does.
func TestExecBindsSurrogateIDs(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	depts, err := eng.IDs("Dept")
	if err != nil {
		t.Fatal(err)
	}
	dept := value.Ref(depts[1])
	got, err := cl.Exec(`SELECT (name, dept) FROM Emp WHERE dept = $1`, dept)
	if err != nil {
		t.Fatal(err)
	}
	all, err := eng.Query(`SELECT (name, dept) FROM Emp`)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]value.V
	for _, row := range all.Rows {
		if row[1] == dept {
			want = append(want, row)
		}
	}
	if len(want) == 0 || fmt.Sprint(got.Rows) != fmt.Sprint(want) {
		t.Fatalf("Exec dept = %v:\n got  %v\n want %v", dept, got.Rows, want)
	}
}

// TestExecSlowLogRecordsBoundText: the slow-query log shows an Exec as the
// statement with its parameters spliced in, not the template.
func TestExecSlowLogRecordsBoundText(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)
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
	if _, err := sess.Option("slow", "1ns"); err != nil {
		t.Fatal(err)
	}

	const text = `SELECT (name, salary) FROM Emp WHERE salary > $1 AND NOT name = $2`
	params := []value.V{value.Float(3000), value.String_(`a "quoted" $1`)}
	if _, err := sess.Exec(text, params...); err != nil {
		t.Fatal(err)
	}
	want, err := query.Bind(text, params)
	if err != nil {
		t.Fatal(err)
	}
	entries := eng.SlowLog().Entries()
	if len(entries) == 0 || entries[len(entries)-1].Query != want {
		t.Fatalf("slow log = %+v, want last entry %q", entries, want)
	}
}

func TestQueryErrorKeepsSession(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = cl.Query(`SELECT (nosuch) FROM Emp`)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeQuery {
		t.Fatalf("expected CodeQuery server error, got %v", err)
	}
	res, err := cl.Query(`SELECT (name) FROM Emp WHERE salary > 4000`)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("session dead after query error: %v", err)
	}
}

func TestPerQueryTimeout(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)
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
	if _, err := sess.Option("timeout", "1ns"); err != nil {
		t.Fatal(err)
	}
	_, err = sess.Query(`SELECT (name) FROM Emp`)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeTimeout {
		t.Fatalf("expected CodeTimeout, got %v", err)
	}
	// The session survives a timeout.
	if _, err := sess.Option("timeout", "0"); err != nil {
		t.Fatal(err)
	}
	if res, err := sess.Query(`SELECT (name) FROM Emp WHERE salary > 4000`); err != nil || len(res.Rows) == 0 {
		t.Fatalf("session dead after timeout: %v", err)
	}
}

func TestSessionPinnedReadView(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)
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

	const q = `SELECT (name) FROM Emp WHERE salary > 0`
	if _, err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	before, err := sess.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	// A concurrent writer commits a new employee. (IDs before Begin: a
	// write transaction holds the engine lock until Commit.)
	deptIDs, err := eng.IDs("Dept")
	if err != nil {
		t.Fatal(err)
	}
	txn, err := eng.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("Emp", map[string]value.V{
		"name": value.String_("newhire"), "salary": value.Int(99999), "dept": value.Ref(deptIDs[0]),
	}, 0); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	pinned, err := sess.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned.Rows) != len(before.Rows) {
		t.Fatalf("pinned view drifted: %d rows before commit, %d after", len(before.Rows), len(pinned.Rows))
	}

	if err := sess.End(); err != nil {
		t.Fatal(err)
	}
	after, err := sess.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("unpinned view missing commit: %d rows, want %d", len(after.Rows), len(before.Rows)+1)
	}
}

// TestConcurrentSessions runs many parallel readers against one writer —
// the single-writer/multi-reader contract over the network, under -race.
func TestConcurrentSessions(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, func(c *Config) { c.MaxConns = 128 })

	const sessions = 64
	const queriesPerSession = 5

	stopWriter := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		deptIDs, err := eng.IDs("Dept")
		if err != nil {
			writerDone <- err
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stopWriter:
				return
			default:
			}
			txn, err := eng.Begin()
			if err != nil {
				writerDone <- err
				return
			}
			_, err = txn.Insert("Emp", map[string]value.V{
				"name": value.String_(fmt.Sprintf("w%d", i)), "salary": value.Int(1), "dept": value.Ref(deptIDs[0]),
			}, 0)
			if err == nil {
				err = txn.Commit()
			}
			if err != nil {
				writerDone <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.New(client.Config{Addr: addr, PoolSize: 1})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < queriesPerSession; j++ {
				res, err := cl.Query(`SELECT (name, salary) FROM Emp WHERE salary > 2000`)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) == 0 {
					errs <- errors.New("empty result")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopWriter)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(errs)
	for err := range errs {
		t.Errorf("session: %v", err)
	}
}

// TestGracefulDrain verifies in-flight queries complete during Shutdown
// while new dials are refused afterwards.
func TestGracefulDrain(t *testing.T) {
	eng := personnelEngine(t)

	cfg := Config{Engine: eng}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	const inflight = 4
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			cl, err := client.New(client.Config{Addr: addr})
			if err != nil {
				results <- err
				return
			}
			defer cl.Close()
			res, err := cl.Query(`SELECT HISTORY(Emp.salary) FROM Emp DURING [0, 1000)`)
			if err == nil && len(res.Rows) == 0 {
				err = errors.New("empty history")
			}
			results <- err
		}()
	}
	// Wait until every query is actually in flight before draining. The
	// server.queries counter increments inside the frame handler, after the
	// drain-visible busy flag is set, so counter == inflight guarantees no
	// session can be hard-closed with an unread Query frame (a fixed sleep
	// here flaked under -race, where handshakes can take longer).
	queriesC := eng.Metrics().Counter("server.queries")
	for deadline := time.Now().Add(5 * time.Second); queriesC.Value() < inflight; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d queries reached the server", queriesC.Value(), inflight)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}

	// Every query that made it in-flight must have completed cleanly.
	for i := 0; i < inflight; i++ {
		if err := <-results; err != nil {
			t.Errorf("in-flight query: %v", err)
		}
	}

	// New dials must be refused now that the listener is closed.
	cl, err := client.New(client.Config{Addr: addr, QueryRetries: -1, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if pingErr := cl.Ping(); pingErr == nil {
		t.Fatal("dial succeeded after drain")
	}
}

func TestMaxConnsRefusesWithBusy(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, func(c *Config) { c.MaxConns = 1 })

	cl, err := client.New(client.Config{Addr: addr, QueryRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Session() // occupies the only slot
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	_, err = cl.Session()
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBusy {
		t.Fatalf("expected CodeBusy, got %v", err)
	}
}

func TestProtocolErrorClosesConn(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// First frame must be Hello; send a Query instead.
	if err := wire.WriteFrame(raw, wire.FrameQuery, wire.EncodeQueryTrace("SELECT (name) FROM Emp", 0)); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameError {
		t.Fatalf("expected Error frame, got 0x%02x", f.Type)
	}
	code, _, _, err := wire.DecodeError(f.Payload)
	if err != nil || code != wire.CodeProtocol {
		t.Fatalf("expected CodeProtocol, got %d (%v)", code, err)
	}
	// The server must then close the connection.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(raw); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

func TestServerMetricsPublished(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(`SELECT (name) FROM Emp WHERE salary > 4000`); err != nil {
		t.Fatal(err)
	}
	counters := eng.Metrics().Counters()
	if counters["server.conns_accepted"] == 0 {
		t.Error("server.conns_accepted not incremented")
	}
	if counters["server.queries"] == 0 {
		t.Error("server.queries not incremented")
	}
	if eng.Metrics().Histogram("server.query_ns").Count() == 0 {
		t.Error("server.query_ns histogram empty")
	}
}
