package server

import (
	"bufio"
	"net"
	"strings"
	"testing"

	"tcodm/internal/obs"
	"tcodm/internal/wire"
	"tcodm/pkg/client"
)

// treeOf indexes one trace's events by name and wires up parentage checks.
func treeOf(t *testing.T, evs []obs.Event) map[string]obs.Event {
	t.Helper()
	m := make(map[string]obs.Event, len(evs))
	for _, ev := range evs {
		m[ev.Name] = ev
	}
	return m
}

// TestClientTraceRoundTrip: a client-stamped trace id travels the wire,
// names the server-side span tree, and comes back on ResultDone together
// with the exact resource totals the executor charged.
func TestClientTraceRoundTrip(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Query(`SELECT (name, salary) FROM Emp WHERE salary > 3000`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == 0 {
		t.Fatal("client query returned trace id 0; the client must stamp every call")
	}
	if res.Res.IsZero() {
		t.Fatalf("resource totals all zero for a scan over 60 employees: %s", res.Res)
	}
	if res.Res.Atoms == 0 || res.Res.Pages == 0 {
		t.Fatalf("expected nonzero atoms and pages, got %s", res.Res)
	}

	// The server tracer must hold the complete tree for that id: a root
	// "query" span with "queue" and "exec" children, and at least one
	// storage-accounting child under exec.
	evs := eng.Tracer().Trace(res.Trace)
	if len(evs) == 0 {
		t.Fatalf("server tracer has no events for trace %d", res.Trace)
	}
	tree := treeOf(t, evs)
	root, ok := tree["query"]
	if !ok {
		t.Fatalf("no root span %q in trace: %s", "query", obs.FormatTrace(evs))
	}
	if root.Parent != 0 {
		t.Errorf("root span has parent %d, want 0", root.Parent)
	}
	queue, ok := tree["queue"]
	if !ok || queue.Parent != root.Span {
		t.Errorf("queue span missing or misparented: %+v", queue)
	}
	exec, ok := tree["exec"]
	if !ok || exec.Parent != root.Span {
		t.Errorf("exec span missing or misparented: %+v", exec)
	}
	storage, ok := tree["storage"]
	if !ok || storage.Parent != exec.Span {
		t.Errorf("storage span missing or misparented: %+v", storage)
	}
	if storage.Res != res.Res {
		t.Errorf("storage span resources %s != wire-reported %s", storage.Res, res.Res)
	}
	if root.Res != res.Res {
		t.Errorf("root span resources %s != wire-reported %s", root.Res, res.Res)
	}
	// The executor's operator spans ride under exec too.
	if scan, ok := tree["op:scan"]; !ok || scan.Parent != exec.Span {
		t.Errorf("op:scan span missing or misparented: %+v", scan)
	}
}

// TestSessionTraceRoundTrip: session statements are traced like one-shot
// client calls.
func TestSessionTraceRoundTrip(t *testing.T) {
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

	res, err := sess.Query(`SELECT (name) FROM Emp WHERE salary > 1000 LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == 0 {
		t.Fatal("session query returned trace id 0")
	}
	formatted := obs.FormatTrace(eng.Tracer().Trace(res.Trace))
	for _, want := range []string{"query", "queue", "exec"} {
		if !strings.Contains(formatted, want) {
			t.Errorf("trace missing %q span:\n%s", want, formatted)
		}
	}
}

// TestServerAssignsTraceWhenClientOmitsIt: a bare legacy Query payload
// (no trailing trace id) still gets a server-assigned trace so operators
// can inspect queries from old clients. Speaks raw wire to guarantee the
// payload carries no trace field.
func TestServerAssignsTraceWhenClientOmitsIt(t *testing.T) {
	eng := personnelEngine(t)
	addr := startServer(t, eng, nil)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	if err := wire.WriteFrame(nc, wire.FrameHello, wire.EncodeHello("legacy/test")); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(r); err != nil || f.Type != wire.FrameWelcome {
		t.Fatalf("handshake: %v (frame 0x%02x)", err, f.Type)
	}

	if err := wire.WriteFrame(nc, wire.FrameQuery, wire.EncodeQueryTrace(`SELECT (name) FROM Emp LIMIT 1`, 0)); err != nil {
		t.Fatal(err)
	}
	var done wire.ResultDone
	for {
		f, err := wire.ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == wire.FrameError {
			t.Fatalf("server error: %s", f.Payload)
		}
		if f.Type == wire.FrameResultDone {
			done, err = wire.DecodeResultDone(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if done.Trace == 0 {
		t.Fatal("server did not assign a trace id to a legacy untraced query")
	}
	if len(eng.Tracer().Trace(done.Trace)) == 0 {
		t.Fatalf("server-assigned trace %d has no span tree", done.Trace)
	}
}
