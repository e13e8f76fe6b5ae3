package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/repl"
	"tcodm/internal/server"
	"tcodm/internal/workload"
	"tcodm/pkg/client"
)

// RT10ReadReplicas measures read throughput through the replica-aware
// client as WAL-shipped followers are added behind one leader: the same
// fixed read workload runs against the leader alone, then against the
// leader plus one and two converged followers, with every result checked
// against the leader's golden answer. All servers share one process and
// one host, so the numbers measure the routing and replication machinery
// (round-robin spread, convergence, watermark bookkeeping), not linear
// hardware scaling — on a single-core runner the throughput columns are
// expected to be flat.
func RT10ReadReplicas(scale Scale, dir string) (*Table, error) {
	t := &Table{
		ID:      "R-T10",
		Title:   "Read scaling via WAL-shipped replicas: leader vs leader + N followers",
		Claim:   "read-only queries spread round-robin across converged replicas with answers identical to the leader's; the leader serves only the residue",
		Columns: []string{"followers", "queries", "elapsed", "queries/sec", "replica share"},
	}

	// Leader: a file-backed personnel database (replication ships the WAL,
	// so the leader must have one).
	leader, err := core.Open(core.Options{Path: filepath.Join(dir, "rt10-leader"), PoolPages: 2048})
	if err != nil {
		return nil, err
	}
	defer leader.Close()
	if err := installSchema(leader, workload.PersonnelSchema); err != nil {
		return nil, err
	}
	app := workload.NewEngineApplier(leader, 64)
	ops := workload.Personnel(workload.PersonnelParams{
		Depts: 4, Emps: 120 * int(scale), UpdatesPerEmp: 4, MovesPerEmp: 1, TimeStep: 10, Seed: 11,
	})
	if _, err := workload.Apply(ops, app); err != nil {
		return nil, err
	}
	if err := app.Flush(); err != nil {
		return nil, err
	}

	// The probe set pins valid time explicitly so leader and follower
	// clocks cannot skew the slice.
	probes := []string{
		`SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary > 3000 AT 45`,
		`SELECT (Emp.name) FROM Emp WHERE Emp.salary > 1000 ORDER BY Emp.name LIMIT 20 AT 45`,
		`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 45`,
	}
	var golden [][][]string
	for _, q := range probes {
		res, err := leader.Query(q)
		if err != nil {
			return nil, fmt.Errorf("R-T10 golden %q: %w", q, err)
		}
		golden = append(golden, renderRows(res.Rows))
	}

	startServer := func(eng *core.Engine, staleness func() time.Duration, src *repl.Source) (string, func(), error) {
		srv, err := server.New(server.Config{Engine: eng, Repl: src, Staleness: staleness})
		if err != nil {
			return "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		stop := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-served
		}
		return ln.Addr().String(), stop, nil
	}

	src := &repl.Source{Engine: leader, Heartbeat: 50 * time.Millisecond}
	leaderAddr, stopLeader, err := startServer(leader, nil, src)
	if err != nil {
		return nil, err
	}
	defer stopLeader()

	const queries = 240
	for _, nf := range []int{0, 1, 2} {
		var replicaAddrs []string
		var followers []*repl.Follower
		var stops []func()
		for i := 0; i < nf; i++ {
			f, err := repl.StartFollower(repl.FollowerConfig{
				Leader:  leaderAddr,
				Path:    filepath.Join(dir, fmt.Sprintf("rt10-f%d-%d", nf, i)),
				Backoff: 50 * time.Millisecond,
			})
			if err != nil {
				return nil, err
			}
			ctx, cancel := context.WithCancel(context.Background())
			go f.Run(ctx)
			addr, stop, err := startServer(f.Engine(), f.Staleness, nil)
			if err != nil {
				cancel()
				f.Close()
				return nil, err
			}
			followers = append(followers, f)
			replicaAddrs = append(replicaAddrs, addr)
			stops = append(stops, func() { stop(); cancel(); f.Close() })
		}
		// Converge every follower before measuring: the experiment times
		// steady-state reads, not catch-up.
		for _, f := range followers {
			if err := waitConverged(f, leader, 20*time.Second); err != nil {
				return nil, err
			}
		}

		cl, err := client.New(client.Config{
			Addr: leaderAddr, Replicas: replicaAddrs,
			MaxStaleness: 5 * time.Second, JitterSeed: 11,
		})
		if err != nil {
			return nil, err
		}
		before := uint64(0)
		for _, f := range followers {
			before += f.Engine().Metrics().Counter("server.queries").Value()
		}
		start := time.Now()
		for i := 0; i < queries; i++ {
			pi := i % len(probes)
			res, err := cl.Query(probes[pi])
			if err != nil {
				cl.Close()
				return nil, fmt.Errorf("R-T10 followers=%d query %d: %w", nf, i, err)
			}
			if err := sameRows(golden[pi], renderRows(res.Rows)); err != nil {
				cl.Close()
				return nil, fmt.Errorf("R-T10 followers=%d query %d DIVERGED from leader: %w", nf, i, err)
			}
		}
		elapsed := time.Since(start)
		cl.Close()
		onReplicas := uint64(0)
		for _, f := range followers {
			onReplicas += f.Engine().Metrics().Counter("server.queries").Value()
		}
		onReplicas -= before
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(nf), fmt.Sprint(queries), dur(elapsed),
			fmt.Sprintf("%.0f", float64(queries)/elapsed.Seconds()),
			fmt.Sprintf("%d%%", onReplicas*100/queries),
		})
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	t.Notes = append(t.Notes,
		"every answer byte-checked against the leader's golden result; a divergent replica read fails the experiment",
		"all servers share one process and host: columns measure routing and replication overhead, not hardware scaling",
	)
	return t, nil
}

// waitConverged polls until f's watermark reaches the leader's appended
// LSN and the logical store digests agree.
func waitConverged(f *repl.Follower, leader *core.Engine, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if f.Watermark() == leader.Log().AppendedLSN() {
			ld, err := leader.DigestStore()
			if err != nil {
				return err
			}
			fd, err := f.Engine().DigestStore()
			if err == nil && bytes.Equal(ld, fd) {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("R-T10: follower stuck at watermark %d, leader at %d",
		f.Watermark(), leader.Log().AppendedLSN())
}
