package client

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcodm/internal/netfault"
	"tcodm/internal/obs"
	"tcodm/internal/value"
	"tcodm/internal/wire"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"empty leader", Config{}, "Addr"},
		{"malformed leader", Config{Addr: "no-port"}, "Addr"},
		{"empty replica", Config{Addr: "a:1", Replicas: []string{""}}, "Replicas[0]"},
		{"malformed replica", Config{Addr: "a:1", Replicas: []string{"b:1", "nope"}}, "Replicas[1]"},
		{"replica duplicates leader", Config{Addr: "a:1", Replicas: []string{"a:1"}}, "Replicas[0]"},
		{"replica duplicates replica", Config{Addr: "a:1", Replicas: []string{"b:1", "b:1"}}, "Replicas[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("New(%+v) err = %v, want *ConfigError", tc.cfg, err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}

	// A well-formed spread constructs fine.
	cl, err := New(Config{Addr: "a:1", Replicas: []string{"b:1", "c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
}

// replicaEndpoint fakes one server that also answers Option frames,
// recording every option it receives.
func replicaEndpoint(t *testing.T, respond func(c net.Conn)) (addr string, queries *atomic.Int64, options *sync.Map) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var count atomic.Int64
	var opts sync.Map
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
					case wire.FrameOption:
						key, val, err := wire.DecodeOption(f.Payload)
						if err != nil {
							return
						}
						opts.Store(key, val)
						wire.WriteFrame(c, wire.FrameAck, wire.EncodeAck(val))
					case wire.FrameQuery, wire.FrameExec:
						count.Add(1)
						respond(c)
					case wire.FrameClose:
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &count, &opts
}

func TestReadsRoundRobinAcrossReplicas(t *testing.T) {
	leader, leaderQ, _ := replicaEndpoint(t, writeOKResult)
	r1, q1, _ := replicaEndpoint(t, writeOKResult)
	r2, q2, _ := replicaEndpoint(t, writeOKResult)

	cl, err := New(Config{Addr: leader, Replicas: []string{r1, r2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 6; i++ {
		if _, err := cl.Query(`SELECT (n) FROM T`); err != nil {
			t.Fatal(err)
		}
	}
	if got := leaderQ.Load(); got != 0 {
		t.Errorf("leader served %d reads; replicas should take them all", got)
	}
	if q1.Load() != 3 || q2.Load() != 3 {
		t.Errorf("replica split = %d/%d, want 3/3", q1.Load(), q2.Load())
	}
}

func TestStaleReplicaFallsBackToLeader(t *testing.T) {
	leader, leaderQ, _ := replicaEndpoint(t, writeOKResult)
	stale, staleQ, staleOpts := replicaEndpoint(t, func(c net.Conn) {
		wire.WriteFrame(c, wire.FrameError, wire.EncodeErrorRetry(wire.CodeStale, "replica lagging", "", 0))
	})

	reg := obs.New()
	cl, err := New(Config{
		Addr: leader, Replicas: []string{stale},
		MaxStaleness: 250 * time.Millisecond,
		RetryBackoff: time.Hour, // the redirect must NOT wait out a backoff
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	start := time.Now()
	res, err := cl.Query(`SELECT (n) FROM T`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query with stale replica: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("staleness redirect took %v; should skip the backoff sleep", d)
	}
	if staleQ.Load() != 1 || leaderQ.Load() != 1 {
		t.Errorf("queries: replica=%d leader=%d, want 1/1", staleQ.Load(), leaderQ.Load())
	}
	if got := reg.Counters()["client.replica_fallback"]; got != 1 {
		t.Errorf("client.replica_fallback = %d, want 1", got)
	}
	// The bound travelled to the replica as a session option at dial time.
	if v, ok := staleOpts.Load("max_staleness"); !ok || v != "250ms" {
		t.Errorf("replica saw max_staleness = %v, want 250ms", v)
	}
}

func TestDeadReplicaFallsBackToLeader(t *testing.T) {
	leader, leaderQ, _ := replicaEndpoint(t, writeOKResult)
	// A port with nothing behind it: replica dials fail outright.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	cl, err := New(Config{
		Addr: leader, Replicas: []string{dead},
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Query(`SELECT (n) FROM T`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query with dead replica: %v", err)
	}
	if got := leaderQ.Load(); got != 1 {
		t.Errorf("leader served %d queries, want the fallback", got)
	}
	// Replica transport failures must not have opened the client breaker.
	if err := cl.brk.allow(); err != nil {
		t.Errorf("breaker tripped by replica-only failures: %v", err)
	}
}

func TestSessionsAlwaysUseLeader(t *testing.T) {
	leader, leaderQ, _ := replicaEndpoint(t, writeOKResult)
	r1, q1, _ := replicaEndpoint(t, writeOKResult)

	cl, err := New(Config{Addr: leader, Replicas: []string{r1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sess, err := cl.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Query(`SELECT (n) FROM T`); err != nil {
		t.Fatal(err)
	}
	if leaderQ.Load() != 1 || q1.Load() != 0 {
		t.Errorf("session query went to replica (leader=%d replica=%d)", leaderQ.Load(), q1.Load())
	}
}

// TestPingUsesLeader: a Ping goes to the leader even with replicas
// configured, and never opens a connection to a replica.
func TestPingUsesLeader(t *testing.T) {
	leader, _, _ := replicaEndpoint(t, writeOKResult)
	r1, _, _ := replicaEndpoint(t, writeOKResult)
	proxy, err := netfault.NewProxy(r1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cl, err := New(Config{Addr: leader, Replicas: []string{proxy.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if got := proxy.Accepted(); got != 0 {
		t.Errorf("Ping opened %d connections to the replica, want 0", got)
	}
}

// TestBreakerProbeOnDeadReplicaResolves: the breaker gates leader
// attempts only, so once the leader is back, the half-open probe of a
// call whose first attempt goes to a dead replica reaches the leader and
// closes the circuit instead of leaving it half-open for good.
func TestBreakerProbeOnDeadReplicaResolves(t *testing.T) {
	leader, leaderQ, _ := replicaEndpoint(t, writeOKResult)
	var refuse atomic.Bool
	refuse.Store(true)
	proxy, err := netfault.NewProxy(leader, 1, func(int) netfault.Script {
		return netfault.Script{RefuseAccept: refuse.Load()}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	cl, err := New(Config{
		Addr: proxy.Addr(), Replicas: []string{dead},
		QueryRetries:    1,
		RetryBackoff:    time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 50 * time.Millisecond,
		JitterSeed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Each call: the dead replica, then the refused leader — one leader
	// failure per call, so two calls open the circuit.
	for i := 0; i < 2; i++ {
		if _, err := cl.Query(`SELECT (n) FROM T`); err == nil {
			t.Fatalf("call %d with a dead replica and a refused leader succeeded", i)
		}
	}
	if got := cl.brk.snapshot(); got != breakerOpen {
		t.Fatalf("breaker state = %d after two leader failures, want open", got)
	}

	refuse.Store(false) // the leader comes back
	time.Sleep(70 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, err := cl.Query(`SELECT (n) FROM T`); err != nil {
			t.Fatalf("call %d after the leader came back: %v (breaker state %d)", i, err, cl.brk.snapshot())
		}
	}
	if got := cl.brk.snapshot(); got != breakerClosed {
		t.Fatalf("breaker state = %d, want closed", got)
	}
	if got := leaderQ.Load(); got != 3 {
		t.Fatalf("leader served %d queries, want 3", got)
	}
}

// TestWatermarkSurfacesOnResult pins the wire plumbing: a server that
// stamps its ResultDone with a watermark sees it surface on the client
// Result.
func TestWatermarkSurfacesOnResult(t *testing.T) {
	addr, _, _ := replicaEndpoint(t, func(c net.Conn) {
		wire.WriteFrame(c, wire.FrameResultHeader, wire.EncodeResultHeader([]string{"n"}))
		wire.WriteFrame(c, wire.FrameResultRows, wire.EncodeResultRows([][]value.V{{value.Int(1)}}))
		wire.WriteFrame(c, wire.FrameResultDone, wire.EncodeResultDone(wire.ResultDone{Rows: 1, Watermark: 42}))
	})
	cl, err := New(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(`SELECT (n) FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Watermark != 42 {
		t.Errorf("Result.Watermark = %d, want 42", res.Watermark)
	}
}
