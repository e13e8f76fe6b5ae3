// Command tcoserve serves a tcodm database over TCP using the wire
// protocol (see internal/wire and DESIGN.md §9). Clients connect with
// pkg/client or the tcoq shell's -remote flag.
//
//	tcoserve -db design.tdb -addr :7483
//	tcoserve -load personnel -addr :7483 -debug-addr localhost:6060
//
// A file-backed server is also a replication leader: followers subscribe
// to its WAL with -follow and serve read-only queries at a replicated
// watermark.
//
//	tcoserve -db leader.tdb -addr :7483                 # leader
//	tcoserve -db replica.tdb -follow host:7483 -addr :7484
//
// SIGTERM or SIGINT starts a graceful drain: the listener closes, busy
// sessions finish their current statement, and the process exits once
// every session is gone (or -drain-timeout forces the issue).
//
// When the leader dies, an operator promotes a caught-up replica in
// place — no restart, no data copy:
//
//	tcoserve -promote host:7484       # tell the replica at host:7484 to take over
//
// Promotion verifies the replica's history against the leader's last
// shipped digest, bumps the leadership epoch, and starts serving writes
// and replication subscriptions. A resurrected old leader that reconnects
// is fenced by the higher epoch and rejoins as a follower.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/obs"
	"tcodm/internal/repl"
	"tcodm/internal/server"
	"tcodm/internal/temporal"
	"tcodm/internal/wire"
	"tcodm/internal/workload"
)

func main() {
	dbPath := flag.String("db", "", "database file (empty = in-memory)")
	addr := flag.String("addr", ":7483", "listen address")
	follow := flag.String("follow", "", "run as a read replica of this leader address (requires -db)")
	load := flag.String("load", "", "seed an in-memory database with a synthetic workload: personnel|cad")
	maxConns := flag.Int("max-conns", 64, "concurrent session limit")
	queryTimeout := flag.Duration("query-timeout", 0, "server-wide per-query cap (0 = unlimited)")
	maxActive := flag.Int("max-active", 16, "concurrent query executions past admission")
	maxQueueDepth := flag.Int("max-queue", 64, "admission queue slots beyond -max-active")
	maxQueueWait := flag.Duration("max-queue-wait", time.Second, "max admission queue wait before shedding")
	retryAfter := flag.Duration("retry-after", 100*time.Millisecond, "retry-after hint attached to shed responses")
	maxResultRows := flag.Int("max-result-rows", 0, "per-query result row budget (0 = unlimited)")
	maxResultBytes := flag.Int("max-result-bytes", 0, "per-query result byte budget (0 = unlimited)")
	slow := flag.Duration("slow", 0, "log queries at or above this duration (0 = off)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight queries on shutdown")
	debugAddr := flag.String("debug-addr", "", "serve expvar+pprof on this address (e.g. localhost:6060)")
	workers := flag.Int("workers", 0, "per-query worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	archiveEvery := flag.Duration("archive-every", 0, "period between background history-tiering passes (0 = off; leader only)")
	archiveHot := flag.Uint64("archive-hot", 4096, "transaction instants each tiering pass keeps in the hot store")
	promote := flag.String("promote", "", "admin mode: promote the replica at this address to leader, print the result, exit")
	adminCmd := flag.String("admin", "", "admin mode: send this admin command (e.g. epoch) to the server at -addr, print the result, exit")
	flag.Parse()

	if *promote != "" {
		runAdmin(*promote, "promote")
		return
	}
	if *adminCmd != "" {
		runAdmin(*addr, *adminCmd)
		return
	}

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	cfg := server.Config{
		Addr:           *addr,
		MaxConns:       *maxConns,
		QueryTimeout:   *queryTimeout,
		MaxActive:      *maxActive,
		MaxQueueDepth:  *maxQueueDepth,
		MaxQueueWait:   *maxQueueWait,
		RetryAfterHint: *retryAfter,
		MaxResultRows:  *maxResultRows,
		MaxResultBytes: *maxResultBytes,
		Logf:           logf,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	var db *core.Engine
	var fol *repl.Follower
	if *follow != "" {
		// Replica mode: a local follower database kept converged with the
		// leader's WAL, served read-only.
		if *dbPath == "" {
			fatal(errors.New("-follow requires -db: replicas are file-backed"))
		}
		if *load != "" {
			fatal(errors.New("-follow and -load are mutually exclusive: a replica's data comes from its leader"))
		}
		var err error
		fol, err = repl.StartFollower(repl.FollowerConfig{
			Leader: *follow,
			Path:   *dbPath,
			Open:   core.Options{SlowQueryThreshold: *slow, QueryWorkers: *workers},
			Logf:   logf,
		})
		if err != nil {
			fatal(err)
		}
		db = fol.Engine()
		cfg.Staleness = fol.Staleness
		fmt.Printf("(replica of %s, watermark LSN %d)\n", *follow, fol.Watermark())
	} else {
		var err error
		db, err = core.Open(core.Options{Path: *dbPath, TimeIndex: true, SlowQueryThreshold: *slow, QueryWorkers: *workers})
		if err != nil {
			fatal(err)
		}
		if db.Recovered {
			rs := db.RecoveryStats()
			fmt.Printf("(crash recovery: replayed %d of %d log records, %d committed, %d torn bytes truncated)\n",
				rs.Replayed, rs.Records, rs.Committed, rs.TornBytes)
		}
		if *load != "" {
			n, _, err := workload.Seed(db, *load)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("(seeded %s workload: %d atoms)\n", *load, n)
		}
		if *dbPath != "" {
			// A file-backed leader serves replication subscriptions; an
			// in-memory engine has no WAL to ship.
			cfg.Repl = &repl.Source{Engine: db, Logf: logf}
		}
	}
	defer func() { db.Close() }()
	if *archiveEvery > 0 {
		if fol != nil {
			fatal(errors.New("-archive-every requires a leader: followers refuse local transactions (they replicate the leader's tiering runs)"))
		}
		// Background tiering: every pass compacts closed history steps and
		// migrates versions transaction-closed more than -archive-hot
		// instants ago into the cold archive file.
		go func() {
			t := time.NewTicker(*archiveEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					now := db.Now()
					if now <= temporal.Instant(*archiveHot) {
						continue
					}
					res, err := db.Archive(now - temporal.Instant(*archiveHot))
					if err != nil {
						logf("tiering pass: %v", err)
						continue
					}
					if res.Compacted+res.Archived > 0 {
						logf("tiering pass: compacted %d steps, archived %d versions", res.Compacted, res.Archived)
					}
				}
			}
		}()
	}
	if *debugAddr != "" {
		db.PublishDebugVars()
		dbg, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("(debug server on http://%s/debug/vars)\n", dbg.Addr())
	}

	cfg.Engine = db
	// The admin hook closes over srv and fol: "promote" turns a replica
	// into the leader in place — verify against the last shipped digest,
	// bump the epoch, open read-write, start serving subscriptions, and
	// report zero lag so replica-dialed sessions keep working.
	var srv *server.Server
	cfg.Admin = func(cmd string) (string, error) {
		switch cmd {
		case "epoch":
			eng := db
			if fol != nil {
				eng = fol.Engine()
			}
			return fmt.Sprintf("epoch %d", eng.Epoch()), nil
		case "promote":
			if fol == nil {
				return "", errors.New("promote: this server is not a replica (started without -follow)")
			}
			epoch, err := fol.Promote()
			if err != nil {
				return "", err
			}
			eng := fol.Engine()
			srv.SetRepl(&repl.Source{Engine: eng, Logf: logf})
			srv.SetStaleness(func() time.Duration { return 0 })
			return fmt.Sprintf("promoted: epoch %d, watermark LSN %d", epoch, eng.Watermark()), nil
		default:
			return "", fmt.Errorf("unknown admin command %q (want promote or epoch)", cmd)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	if fol != nil {
		// Snapshot bootstraps swap the engine under the server; the closed
		// old engine is what the deferred Close sees, so track the newest.
		fol.SetOnSwap(func(old, next *core.Engine) {
			srv.SwapEngine(next)
			if *debugAddr != "" {
				next.PublishDebugVars()
			}
			db = next
		})
		go fol.Run(ctx)
	}

	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()

	// ListenAndServe binds asynchronously; report the address once up.
	for i := 0; i < 100 && srv.Addr() == ""; i++ {
		select {
		case err := <-served:
			fatal(err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	fmt.Printf("tcoserve listening on %s\n", srv.Addr())

	select {
	case err := <-served:
		if err != nil {
			fatal(err)
		}
		return
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Println("draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "tcoserve: drain incomplete:", err)
	}
	if err := <-served; err != nil {
		fatal(err)
	}
	fmt.Println("drained cleanly")
}

// runAdmin is the one-shot admin client: handshake, one Admin frame,
// print the server's answer, exit. Exit status 1 on any failure so CI
// scripts can gate on promotion succeeding.
func runAdmin(addr, cmd string) {
	out, err := sendAdmin(addr, cmd)
	if err != nil {
		fatal(fmt.Errorf("admin %q at %s: %w", cmd, addr, err))
	}
	fmt.Println(out)
}

func sendAdmin(addr, cmd string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello("tcoserve-admin/1")); err != nil {
		return "", err
	}
	f, err := wire.ReadFrame(br)
	if err != nil {
		return "", err
	}
	if f.Type != wire.FrameWelcome {
		return "", adminServerError(f)
	}
	if err := wire.WriteFrame(conn, wire.FrameAdmin, wire.EncodeAdmin(cmd)); err != nil {
		return "", err
	}
	f, err = wire.ReadFrame(br)
	if err != nil {
		return "", err
	}
	if f.Type != wire.FrameAck {
		return "", adminServerError(f)
	}
	out, err := wire.DecodeAck(f.Payload)
	if err != nil {
		return "", err
	}
	wire.WriteFrame(conn, wire.FrameClose, nil)
	return out, nil
}

func adminServerError(f wire.Frame) error {
	if f.Type == wire.FrameError {
		if code, msg, detail, _, err := wire.DecodeErrorRetry(f.Payload); err == nil {
			if detail != "" {
				return fmt.Errorf("server error %d: %s (%s)", code, msg, detail)
			}
			return fmt.Errorf("server error %d: %s", code, msg)
		}
	}
	return fmt.Errorf("unexpected frame 0x%02x", f.Type)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcoserve:", err)
	os.Exit(1)
}
