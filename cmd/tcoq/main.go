// Command tcoq is the interactive TMQL shell: open (or create) a database
// and run temporal molecule queries against it.
//
//	tcoq -db design.tdb
//	> SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary > 4000 AT 100
//	> SELECT HISTORY(salary) FROM Emp DURING [0, 200)
//	> .schema
//	> .stats
//	> .quit
//
// Without -db it opens an ephemeral in-memory database (useful together
// with .load to explore the synthetic workloads).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"tcodm/internal/core"
	"tcodm/internal/obs"
	"tcodm/internal/query"
	"tcodm/internal/temporal"
	"tcodm/internal/workload"
	"tcodm/pkg/client"
)

func main() {
	dbPath := flag.String("db", "", "database file (empty = in-memory)")
	oneShot := flag.String("c", "", "execute one query and exit")
	remote := flag.String("remote", "", "connect to a tcoserve instance at this address instead of opening a database")
	readOnly := flag.Bool("ro", false, "open the database read-only: no writer lease, safe alongside a live writer or follower")
	debugAddr := flag.String("debug-addr", "", "serve expvar+pprof on this address (e.g. localhost:6060)")
	slow := flag.Duration("slow", 0, "log queries at or above this duration (0 = off)")
	workers := flag.Int("workers", 0, "per-query worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	if *remote != "" {
		remoteShell(*remote, *oneShot)
		return
	}

	if *readOnly && *dbPath == "" {
		fatal(fmt.Errorf("-ro requires -db: only a file-backed database can be opened read-only"))
	}
	db, err := core.Open(core.Options{Path: *dbPath, ReadOnly: *readOnly, TimeIndex: true, SlowQueryThreshold: *slow, QueryWorkers: *workers})
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if db.Recovered {
		fmt.Println("(crash recovery performed)")
		rs := db.RecoveryStats()
		fmt.Printf("(replayed %d of %d log records, %d committed, %d torn bytes truncated)\n",
			rs.Replayed, rs.Records, rs.Committed, rs.TornBytes)
	}
	if *debugAddr != "" {
		db.PublishDebugVars()
		addr, err := obs.StartDebugServer(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("(debug server on http://%s/debug/vars)\n", addr.Addr())
	}
	if *oneShot != "" {
		res, err := runQuery(db, *oneShot)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Table())
		return
	}

	fmt.Println("tcoq — temporal complex-object query shell. Type .help for commands.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lastTrace uint64
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			help()
		case line == ".schema":
			printSchema(db)
		case line == ".stats":
			printStats(db)
		case line == ".slowlog":
			printSlowLog(db)
		case strings.HasPrefix(line, ".trace"):
			printTrace(db, strings.Fields(line), lastTrace)
		case strings.HasPrefix(line, ".explain "):
			explain(db, strings.TrimSpace(strings.TrimPrefix(line, ".explain")))
		case strings.HasPrefix(line, ".load"):
			loadWorkload(db, strings.Fields(line))
		case line == ".vacuum":
			removed, err := db.Vacuum(db.Now())
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("vacuumed %d superseded versions\n", removed)
		case strings.HasPrefix(line, ".compact"):
			runTiering(db, strings.Fields(line), false)
		case strings.HasPrefix(line, ".archive"):
			runTiering(db, strings.Fields(line), true)
		case strings.HasPrefix(line, "."):
			fmt.Println("unknown command; try .help")
		default:
			res, err := runQuery(db, line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(res.Table())
			if len(res.Molecules) > 0 {
				for _, m := range res.Molecules {
					fmt.Printf("molecule %s root=%v atoms=%d\n", m.Type.Name, m.Root, m.Size())
				}
			}
			lastTrace = res.Trace
			fmt.Printf("(%d rows; plan: %s; trace: %d)\n", len(res.Rows), res.Plan, res.Trace)
		}
	}
}

// printTrace renders one span tree from the engine's tracer. With no
// argument it shows the last query's trace, falling back to the recent
// trace-id index; ".trace <id>" looks up a specific trace.
func printTrace(db *core.Engine, fields []string, lastTrace uint64) {
	tr := db.Tracer()
	if tr == nil {
		fmt.Println("tracing disabled")
		return
	}
	id := lastTrace
	if len(fields) > 1 {
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Println("usage: .trace [id]")
			return
		}
		id = n
	}
	if id == 0 {
		ids := tr.TraceIDs(20)
		if len(ids) == 0 {
			fmt.Println("no traces recorded yet")
			return
		}
		fmt.Println("recent traces (newest first); .trace <id> to inspect:")
		for _, t := range ids {
			fmt.Printf("  %d\n", t)
		}
		return
	}
	evs := tr.Trace(id)
	if len(evs) == 0 {
		fmt.Printf("trace %d not found (evicted or never recorded)\n", id)
		return
	}
	fmt.Print(obs.FormatTrace(evs))
}

// runTiering drives the history-tiering pipeline from the shell: .compact
// coalesces adjacent equal-valued closed steps in place; .archive also
// migrates transaction-closed versions into the cold archive file. An
// optional argument bounds the pass to versions closed before that
// transaction instant (default: the current instant).
func runTiering(db *core.Engine, fields []string, archive bool) {
	before := db.Now()
	if len(fields) > 1 {
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Println("usage: .compact [tt] / .archive [tt]")
			return
		}
		before = temporal.Instant(n)
	}
	if archive {
		res, err := db.Archive(before)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("compacted %d steps, archived %d versions (archive file: %d bytes)\n",
			res.Compacted, res.Archived, db.Stats().ArchiveBytes)
		return
	}
	merged, err := db.Compact(before)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("compacted %d steps\n", merged)
}

func help() {
	fmt.Print(`TMQL:
  SELECT ALL FROM <Molecule> [WHERE ...] [AT t] [ASOF t]
  SELECT (T.attr, ..., COUNT(T)) FROM <Type|Molecule> [WHERE ...] [WHEN ...] [AT t] [ASOF t]
  SELECT HISTORY(attr) FROM <Type> [WHERE ...] [DURING [a, b)]
  WHEN VALID(attr) OVERLAPS|CONTAINS|DURING|PRECEDES|MEETS|EQUALS PERIOD [a, b)
  EXPLAIN [ANALYZE] SELECT ...   show the plan (ANALYZE also runs it, with per-operator rows/times)
Shell commands:
  .schema            print the catalog
  .stats             engine statistics (layer counters, latency quantiles, query metrics)
  .explain <query>   shorthand for EXPLAIN ANALYZE <query>
  .trace [id]        span tree for the last query (or a specific trace id)
  .slowlog           recent slow queries (enable with -slow <dur>)
  .load personnel    load the synthetic personnel workload (defines its schema)
  .load cad          load the synthetic design workload
  .vacuum            purge versions superseded before the current instant
  .compact [tt]      coalesce equal-valued closed history steps (default bound: now)
  .archive [tt]      compact, then migrate closed versions into the cold archive
  .quit
`)
}

func printSchema(db *core.Engine) {
	sch := db.Schema()
	for _, name := range sch.AtomTypeNames() {
		at, _ := sch.AtomType(name)
		fmt.Printf("atom type %s:\n", name)
		for _, a := range at.Attrs {
			flags := ""
			if a.Temporal {
				flags += " temporal"
			}
			if a.Required {
				flags += " required"
			}
			if a.IsRef() {
				fmt.Printf("  %s -> %s (%s)%s\n", a.Name, a.Target, a.Card, flags)
				continue
			}
			fmt.Printf("  %s %s%s\n", a.Name, a.Kind, flags)
		}
	}
	for _, name := range sch.MoleculeTypeNames() {
		mt, _ := sch.MoleculeType(name)
		fmt.Printf("molecule type %s (root %s):\n", name, mt.Root)
		for _, e := range mt.Edges {
			dir := "->"
			if e.Reverse {
				dir = "<-"
			}
			fmt.Printf("  %s %s %s via %s\n", e.From, dir, e.To, e.Attr)
		}
	}
}

func printStats(db *core.Engine) {
	s := db.Stats()
	fmt.Printf("atoms: %d  device pages: %d (%.1f MiB)  log: %.1f KiB\n",
		s.Atoms, s.DevicePags, float64(s.DevicePags)*8/1024, float64(s.LogBytes)/1024)
	fmt.Printf("pool: hits %d, misses %d (ratio %.3f), evictions %d\n",
		s.Pool.Hits, s.Pool.Misses, s.Pool.HitRatio(), s.Pool.Evictions)
	fmt.Printf("atom layer: fast loads %d, full loads %d, segment reads %d, snapshot hops %d\n",
		s.AtomLayer.FastLoads, s.AtomLayer.FullLoads, s.AtomLayer.SegmentReads, s.AtomLayer.SnapshotHops)
	fmt.Print(db.Metrics().String())
	if t := db.SlowLog().Threshold(); t > 0 {
		fmt.Printf("slow queries: %d captured (threshold %s)\n", db.SlowLog().Total(), t)
	}
}

func printSlowLog(db *core.Engine) {
	sl := db.SlowLog()
	if sl.Threshold() == 0 {
		fmt.Println("slow-query log disabled; restart with -slow <duration> (e.g. -slow 10ms)")
		return
	}
	entries := sl.Entries()
	if len(entries) == 0 {
		fmt.Printf("no queries at or above %s yet\n", sl.Threshold())
		return
	}
	fmt.Print(sl.String())
}

func explain(db *core.Engine, q string) {
	if q == "" {
		fmt.Println("usage: .explain <query>")
		return
	}
	res, err := db.Query("EXPLAIN ANALYZE " + q)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(res.Plan)
}

func loadWorkload(db *core.Engine, args []string) {
	if len(args) < 2 {
		fmt.Println("usage: .load personnel|cad")
		return
	}
	atoms, ops, err := workload.Seed(db, args[1])
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("loaded %d atoms (%d operations)\n", atoms, ops)
}

// runQuery executes one local query, cancellable with ctrl-C: a long
// scan aborts and returns to the prompt instead of requiring a kill.
func runQuery(db *core.Engine, q string) (*query.Result, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	return db.QueryCtx(ctx, q)
}

// remoteShell is the shell against a tcoserve instance: TMQL travels over
// the wire, session options via dot-commands.
func remoteShell(addr, oneShot string) {
	cl, err := client.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Session()
	if err != nil {
		fatal(err)
	}
	defer sess.Close()

	run := func(q string) (*client.Result, error) {
		// ctrl-C during a long remote query drops the prompt's wait; the
		// server-side timeout (".option timeout <dur>") bounds the query.
		return sess.Query(q)
	}
	if oneShot != "" {
		res, err := run(oneShot)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Table())
		return
	}

	fmt.Printf("tcoq — connected to %s (session %d). Type .help for commands.\n", addr, sess.ID())
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last *client.Result
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			remoteHelp()
		case line == ".ping":
			if err := sess.Ping(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("pong")
			}
		case line == ".begin":
			tt, err := sess.Begin()
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("read view pinned at tt=%s\n", tt)
			}
		case line == ".end":
			if err := sess.End(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("read view released")
			}
		case line == ".trace":
			if last == nil || last.Trace == 0 {
				fmt.Println("no traced query yet")
				continue
			}
			fmt.Printf("trace %d: %s\n", last.Trace, last.Res.String())
			fmt.Printf("full span tree: curl the server's /debug/trace/%d (requires tcoserve -debug-addr)\n", last.Trace)
		case strings.HasPrefix(line, ".option"):
			fields := strings.Fields(line)
			if len(fields) < 2 || len(fields) > 3 {
				fmt.Println("usage: .option <key> [value]")
				continue
			}
			val := ""
			if len(fields) == 3 {
				val = fields[2]
			}
			ack, err := sess.Option(fields[1], val)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%s = %s\n", fields[1], ack)
			}
		case strings.HasPrefix(line, "."):
			fmt.Println("unknown command; try .help")
		default:
			res, err := run(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			last = res
			fmt.Print(res.Table())
			fmt.Printf("(%d rows in %s; plan: %s; trace: %d)\n", len(res.Rows), res.Elapsed, res.Plan, res.Trace)
		}
	}
}

func remoteHelp() {
	fmt.Print(`Remote session commands (TMQL queries run server-side; see .help in local mode for syntax):
  .option vt <t>|default       default valid-time slice for queries without AT
  .option tt <t>|default       default transaction-time slice (ASOF)
  .option timeout <dur>        per-query timeout (e.g. 250ms; 0 = off)
  .option slow <dur>           per-session slow-query threshold
  .option batch <n>            result rows per frame
  .begin / .end                pin / release a repeatable-read view
  .trace                       trace id + exact resource totals of the last query
  .ping                        liveness probe
  .quit
`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcoq:", err)
	os.Exit(1)
}
