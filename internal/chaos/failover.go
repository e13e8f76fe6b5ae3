package chaos

// Failover chaos: leader death, promotion, fencing, and rejoin driven
// through real engines, real wire servers, and the real client — every
// scenario a deterministic function of its fixed script. The contract:
//
//   - No write that was shipped to (acked by) the replication stream is
//     ever lost by a promotion, a crash, or a rejoin.
//   - A resurrected ex-leader never splits the brain: its divergent
//     unshipped suffix is fenced and discarded, and it converges onto the
//     promoted timeline byte-for-byte (logical store digest).
//   - Promotion is once-only per node, bumps the epoch exactly once, and
//     replicates through the WAL itself — downstream followers learn the
//     epoch from the log, never a side channel.
//   - Clients re-route leader-targeted traffic to the highest-epoch
//     writable node, deterministically (ties go to probe order), and
//     surface the epoch change on every Result.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/fault"
	"tcodm/internal/repl"
	"tcodm/internal/temporal"
	"tcodm/internal/wire"
	"tcodm/pkg/client"
)

// countEmp returns the number of Emp rows visible at VT 0, latest TT.
func countEmp(eng *core.Engine) (int, error) {
	res, err := eng.Query(replQuery)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// promoteOrBad promotes f and runs the shared post-promotion assertions:
// epoch value, writability, zero staleness, once-only.
func promoteOrBad(f *repl.Follower, wantEpoch uint64, out *fault.Outcome) bool {
	epoch, err := f.Promote()
	if err != nil {
		out.Bad("promote: %v", err)
		return false
	}
	if epoch != wantEpoch {
		out.Bad("promotion epoch = %d, want %d", epoch, wantEpoch)
	}
	if f.Engine().IsReadOnly() || f.Engine().IsFollower() {
		out.Bad("promoted engine still refuses writes")
	}
	if s := f.Staleness(); s != 0 {
		out.Bad("promoted node staleness = %v, want 0", s)
	}
	if _, err := f.Promote(); err == nil {
		out.Bad("DOUBLE PROMOTION: second Promote on the same node succeeded")
	}
	return true
}

// failoverScenarios is the leader-failover fault family.
func failoverScenarios(e *env) []fault.Scenario {
	var scs []fault.Scenario
	add := func(name string, short bool, run func() fault.Outcome) {
		scs = append(scs, fault.Scenario{Name: name, Short: short, Run: run})
	}

	// --- caught-up promotion -------------------------------------------------
	// Converge fully, promote, and check the whole post-promotion contract:
	// exact row counts (zero acked-write loss), epoch 1, local writes land.
	for _, n := range []int{1, 3, 5, 8, 12, 20, 30, 45} {
		n := n
		add(fmt.Sprintf("failover-promote-caught-up-%d", n), n == 8, replScenario(func(l *replLab, out *fault.Outcome) {
			f := l.caughtUp(n, out)
			if f == nil {
				return
			}
			l.srv.stop() // the leader "dies" (cleanly severs the stream)
			if !promoteOrBad(f, 1, out) {
				return
			}
			if got, err := countEmp(f.Engine()); err != nil || got != n {
				out.Bad("ACKED WRITE LOST: promoted node has %d rows, want %d (%v)", got, n, err)
			}
			seq := 0
			if err := commit(f.Engine(), "p", &seq, 3); err != nil {
				out.Bad("post-promotion commit: %v", err)
				return
			}
			if got, err := countEmp(f.Engine()); err != nil || got != n+3 {
				out.Bad("post-promotion rows = %d, want %d (%v)", got, n+3, err)
			}
		}))
	}

	// --- leader killed mid-commit-group --------------------------------------
	// The stream is severed at a known watermark, the leader commits a
	// group that never ships, then dies by SIGKILL (no flush); the torn
	// variants also smash a partial record onto the WAL tail. Promotion
	// must preserve every shipped write; the resurrected leader must be
	// fenced, discard its suffix, and converge onto the new timeline.
	for _, n := range []int{3, 8, 15, 30} {
		for _, torn := range []bool{false, true} {
			n, torn := n, torn
			name := fmt.Sprintf("failover-kill-mid-group-%d", n)
			if torn {
				name += "-torn"
			}
			add(name, n == 8 && !torn, replScenario(func(l *replLab, out *fault.Outcome) {
				f := l.caughtUp(n, out)
				if f == nil {
					return
				}
				l.srv.stop()
				// Two commits the stream never sees, then SIGKILL.
				if err := commit(l.leader, "e", &l.seq, 2); err != nil {
					out.Bad("unshipped commit: %v", err)
					return
				}
				leaderPath := filepath.Join(l.dir, "leader")
				if err := l.leader.Crash(); err != nil {
					out.Bad("crash: %v", err)
					return
				}
				if torn {
					// A torn half-record at the WAL tail, as a real mid-write
					// SIGKILL leaves behind.
					wf, err := os.OpenFile(leaderPath+".wal", os.O_APPEND|os.O_WRONLY, 0o644)
					if err != nil {
						out.Bad("torn tail: %v", err)
						return
					}
					wf.Write([]byte{0x7F, 0x01, 0x02, 0x03, 0x04})
					wf.Close()
				}

				if !promoteOrBad(f, 1, out) {
					return
				}
				if got, err := countEmp(f.Engine()); err != nil || got != n {
					out.Bad("ACKED WRITE LOST: promoted node has %d rows, want %d (%v)", got, n, err)
				}
				seq := 0
				if err := commit(f.Engine(), "p", &seq, 2); err != nil {
					out.Bad("post-promotion commit: %v", err)
					return
				}

				// Resurrect the old leader as a follower of the new one: its
				// divergent suffix must be fenced away, not merged.
				ns, err := serveLeader(f.Engine(), zeroLag)
				if err != nil {
					out.Bad("new leader server: %v", err)
					return
				}
				defer ns.stop()
				old, cancelOld, err := startFollower(ns.addr, leaderPath, false)
				if err != nil {
					out.Bad("resurrect old leader: %v", err)
					return
				}
				defer func() { cancelOld(); old.Close() }()
				// The lab still owns l.leader; hand it the rejoined engine's
				// lifecycle is ours, the crashed engine needs no close.
				if !waitConverged(old, f.Engine(), out) {
					return
				}
				if old.Engine().Epoch() != 1 {
					out.Bad("rejoined old leader epoch = %d, want 1", old.Engine().Epoch())
				}
				if got, err := countEmp(old.Engine()); err != nil || got != n+2 {
					out.Bad("SPLIT BRAIN: rejoined old leader has %d rows, want %d (%v)", got, n+2, err)
				}
				if f.Engine().Metrics().Counters()["repl.fences_sent"] == 0 {
					out.Bad("divergent ex-leader rejoined without being fenced")
				}
				if old.Engine().Metrics().Counters()["repl.snapshot_bootstraps"] == 0 {
					out.Bad("divergent ex-leader rejoined without a snapshot")
				}
			}))
		}
	}

	// --- promotion during a partition ----------------------------------------
	// The follower is cut off, the unaware leader commits k more groups,
	// the follower promotes anyway. k = 0 is the clean-resurrection case:
	// the old leader's history is an exact prefix, so it must be served
	// WITHOUT fencing or a snapshot and learn the epoch from the stream.
	for _, k := range []int{0, 1, 2, 3, 7, 15} {
		k := k
		add(fmt.Sprintf("failover-promote-partitioned-%d-unshipped", k), k == 0 || k == 3, replScenario(func(l *replLab, out *fault.Outcome) {
			const n = 6
			f := l.caughtUp(n, out)
			if f == nil {
				return
			}
			l.srv.stop() // partition
			if err := commit(l.leader, "e", &l.seq, k); err != nil {
				out.Bad("partitioned commit: %v", err)
				return
			}
			if !promoteOrBad(f, 1, out) {
				return
			}
			if got, err := countEmp(f.Engine()); err != nil || got != n {
				out.Bad("promoted node has %d rows, want %d (%v)", got, n, err)
			}

			// The old leader shuts down cleanly and rejoins.
			leaderPath := filepath.Join(l.dir, "leader")
			if err := l.leader.Close(); err != nil {
				out.Bad("leader close: %v", err)
				return
			}
			ns, err := serveLeader(f.Engine(), zeroLag)
			if err != nil {
				out.Bad("new leader server: %v", err)
				return
			}
			defer ns.stop()
			old, cancelOld, err := startFollower(ns.addr, leaderPath, false)
			if err != nil {
				out.Bad("rejoin: %v", err)
				return
			}
			defer func() { cancelOld(); old.Close() }()
			if !waitConverged(old, f.Engine(), out) {
				return
			}
			if old.Engine().Epoch() != 1 {
				out.Bad("rejoined epoch = %d, want 1", old.Engine().Epoch())
			}
			fences := f.Engine().Metrics().Counters()["repl.fences_sent"]
			boots := old.Engine().Metrics().Counters()["repl.snapshot_bootstraps"]
			if k == 0 {
				// Clean prefix: served in place, no fence, no snapshot.
				if fences != 0 {
					out.Bad("clean-prefix ex-leader was fenced (%d fences)", fences)
				}
				if boots != 0 {
					out.Bad("clean-prefix ex-leader was made to bootstrap")
				}
			} else {
				if fences == 0 {
					out.Bad("divergent ex-leader (%d unshipped) was not fenced", k)
				}
				if boots == 0 {
					out.Bad("divergent ex-leader rejoined without a snapshot")
				}
			}
		}))
	}

	// --- double promotion race -----------------------------------------------
	// Two converged followers both promote after the leader dies. At the
	// same frontier both land on epoch 1 with byte-identical histories
	// (the epoch group is deterministic), clients deterministically agree
	// on one winner, and the loser is demoted by an operator-forced
	// snapshot rejoin.
	for _, n := range []int{5, 20} {
		for _, swap := range []bool{false, true} {
			n, swap := n, swap
			name := fmt.Sprintf("failover-double-promote-%d", n)
			if swap {
				name += "-swapped"
			}
			add(name, n == 5 && !swap, replScenario(func(l *replLab, out *fault.Outcome) {
				if err := commit(l.leader, "e", &l.seq, n); err != nil {
					out.Bad("commit: %v", err)
					return
				}
				f1, cancel1, err := startFollower(l.addr, filepath.Join(l.dir, "f1"), false)
				if err != nil {
					out.Bad("f1: %v", err)
					return
				}
				defer func() { cancel1(); f1.Close() }()
				f2, cancel2, err := startFollower(l.addr, filepath.Join(l.dir, "f2"), false)
				if err != nil {
					out.Bad("f2: %v", err)
					return
				}
				deadAddr := l.addr()
				if !waitConverged(f1, l.leader, out) || !waitConverged(f2, l.leader, out) {
					cancel2()
					f2.Close()
					return
				}
				l.srv.stop() // leader dies; both followers promote
				if !promoteOrBad(f1, 1, out) || !promoteOrBad(f2, 1, out) {
					cancel2()
					f2.Close()
					return
				}
				// Same frontier, same epoch: the histories must be identical.
				d1, err1 := f1.Engine().DigestStore()
				d2, err2 := f2.Engine().DigestStore()
				if err1 != nil || err2 != nil || !bytes.Equal(d1, d2) {
					out.Bad("same-frontier double promotion diverged (%v, %v)", err1, err2)
				}

				s1, err := serveLeader(f1.Engine(), zeroLag)
				if err != nil {
					out.Bad("s1: %v", err)
					cancel2()
					f2.Close()
					return
				}
				s2, err := serveLeader(f2.Engine(), zeroLag)
				if err != nil {
					out.Bad("s2: %v", err)
					s1.stop()
					cancel2()
					f2.Close()
					return
				}
				replicas := []string{s1.addr(), s2.addr()}
				if swap {
					replicas[0], replicas[1] = replicas[1], replicas[0]
				}
				// Every client with the same config must pick the same winner:
				// the earliest probe-order address among the highest epoch.
				var winners []string
				for i := 0; i < 2; i++ {
					cl, err := client.New(client.Config{
						Addr: deadAddr, Replicas: replicas,
						QueryRetries: 1,
						RetryBackoff: time.Millisecond, JitterSeed: e.seed + int64(i),
					})
					if err != nil {
						out.Bad("client: %v", err)
						break
					}
					sess, err := cl.Session()
					if err != nil {
						out.Bad("session after double promote: %v", err)
						cl.Close()
						break
					}
					sess.Close()
					if cl.Epoch() != 1 {
						out.Bad("client observed epoch %d, want 1", cl.Epoch())
					}
					winners = append(winners, cl.Leader())
					cl.Close()
				}
				if len(winners) == 2 {
					if winners[0] != winners[1] {
						out.Bad("NONDETERMINISTIC WINNER: %s vs %s", winners[0], winners[1])
					}
					if winners[0] != replicas[0] {
						out.Bad("winner %s is not the earliest probe address %s", winners[0], replicas[0])
					}
				}
				s2.stop()

				// Demote the loser (f2): operator-forced snapshot rejoin under
				// the winner. Its engine must come back read-only at epoch 1
				// with the winner's exact history.
				f2Path := filepath.Join(l.dir, "f2")
				cancel2()
				if err := f2.Close(); err != nil {
					out.Bad("loser close: %v", err)
					s1.stop()
					return
				}
				loser, cancelL, err := startFollower(s1.addr, f2Path, true)
				if err != nil {
					out.Bad("demote rejoin: %v", err)
					s1.stop()
					return
				}
				defer func() { cancelL(); loser.Close() }()
				if waitConverged(loser, f1.Engine(), out) {
					if !loser.Engine().IsReadOnly() {
						out.Bad("demoted loser still accepts writes")
					}
					if loser.Engine().Epoch() != 1 {
						out.Bad("demoted loser epoch = %d, want 1", loser.Engine().Epoch())
					}
				}
				s1.stop()
			}))
		}
	}

	// --- promotion vs the archive tier ---------------------------------------
	add("failover-archive-then-promote", false, replScenario(func(l *replLab, out *fault.Outcome) {
		if err := commit(l.leader, "e", &l.seq, 30); err != nil {
			out.Bad("commit: %v", err)
			return
		}
		// Tier the older half of history down, then replicate and promote:
		// the archive state must ship and survive promotion.
		if _, err := l.leader.Archive(temporal.Instant(l.leader.Now() / 2)); err != nil {
			out.Bad("archive: %v", err)
			return
		}
		f, cancel, err := startFollower(l.addr, filepath.Join(l.dir, "f1"), false)
		if err != nil {
			out.Bad("follower: %v", err)
			return
		}
		defer func() { cancel(); f.Close() }()
		if !waitConverged(f, l.leader, out) {
			return
		}
		l.srv.stop()
		if !promoteOrBad(f, 1, out) {
			return
		}
		if got, err := countEmp(f.Engine()); err != nil || got != 30 {
			out.Bad("rows after archive+promote = %d, want 30 (%v)", got, err)
		}
	}))
	add("failover-promote-then-archive", true, replScenario(func(l *replLab, out *fault.Outcome) {
		f := l.caughtUp(20, out)
		if f == nil {
			return
		}
		l.srv.stop()
		if !promoteOrBad(f, 1, out) {
			return
		}
		// The new leader immediately runs the tiering pipeline, then keeps
		// committing; a fresh follower must still converge byte-for-byte.
		neu := f.Engine()
		if _, err := neu.Archive(temporal.Instant(neu.Now() / 2)); err != nil {
			out.Bad("archive on promoted node: %v", err)
			return
		}
		seq := 0
		if err := commit(neu, "p", &seq, 4); err != nil {
			out.Bad("commit after archive: %v", err)
			return
		}
		if got, err := countEmp(neu); err != nil || got != 24 {
			out.Bad("rows after promote+archive = %d, want 24 (%v)", got, err)
		}
		ns, err := serveLeader(neu, zeroLag)
		if err != nil {
			out.Bad("serve: %v", err)
			return
		}
		defer ns.stop()
		f2, cancel2, err := startFollower(ns.addr, filepath.Join(l.dir, "f2"), false)
		if err != nil {
			out.Bad("f2: %v", err)
			return
		}
		defer func() { cancel2(); f2.Close() }()
		waitConverged(f2, neu, out)
	}))
	add("failover-promote-then-checkpoint", false, replScenario(func(l *replLab, out *fault.Outcome) {
		f := l.caughtUp(10, out)
		if f == nil {
			return
		}
		l.srv.stop()
		if !promoteOrBad(f, 1, out) {
			return
		}
		// Checkpoint truncates the new leader's log: a fresh follower can
		// no longer start from LSN 1 and must be seeded with a snapshot.
		neu := f.Engine()
		if err := neu.Checkpoint(); err != nil {
			out.Bad("checkpoint on promoted node: %v", err)
			return
		}
		seq := 0
		if err := commit(neu, "p", &seq, 3); err != nil {
			out.Bad("commit after checkpoint: %v", err)
			return
		}
		ns, err := serveLeader(neu, zeroLag)
		if err != nil {
			out.Bad("serve: %v", err)
			return
		}
		defer ns.stop()
		f2, cancel2, err := startFollower(ns.addr, filepath.Join(l.dir, "f2"), false)
		if err != nil {
			out.Bad("f2: %v", err)
			return
		}
		defer func() { cancel2(); f2.Close() }()
		if waitConverged(f2, neu, out) {
			if f2.Engine().Metrics().Counters()["repl.snapshot_bootstraps"] == 0 {
				out.Bad("follower of a checkpointed promoted leader converged without a snapshot")
			}
			if f2.Engine().Epoch() != 1 {
				out.Bad("snapshot carried epoch %d, want 1", f2.Engine().Epoch())
			}
		}
	}))

	// --- fencing: a stale source refuses a future subscriber ------------------
	// Serve is driven directly with a subscriber claiming a higher epoch:
	// the source must self-fence (Fence frame + OnFenced + error), never
	// stream a single record.
	for _, peer := range []uint64{1, 2, 3, 5, 9, 17} {
		peer := peer
		add(fmt.Sprintf("failover-fence-subscriber-epoch-%d", peer), peer == 2, replScenario(func(l *replLab, out *fault.Outcome) {
			if err := commit(l.leader, "e", &l.seq, 3); err != nil {
				out.Bad("commit: %v", err)
				return
			}
			var fencedBy uint64
			src := &repl.Source{Engine: l.leader, OnFenced: func(e uint64) { fencedBy = e }}
			cli, srvConn := net.Pipe()
			defer cli.Close()
			done := make(chan error, 1)
			go func() {
				defer srvConn.Close()
				done <- src.Serve(context.Background(), srvConn, wire.SubscribeReq{FromLSN: 1, Epoch: peer})
			}()
			fr, err := wire.ReadFrame(bufio.NewReader(cli))
			if err != nil {
				out.Bad("read: %v", err)
				return
			}
			if fr.Type != wire.FrameFence {
				out.Bad("stale source sent frame 0x%02x, want Fence", fr.Type)
				return
			}
			fence, err := wire.DecodeFence(fr.Payload)
			if err != nil || fence.Epoch != 0 {
				out.Bad("fence = %+v (%v), want source epoch 0", fence, err)
			}
			if err := <-done; err == nil {
				out.Bad("stale source served a higher-epoch subscriber")
			}
			if fencedBy != peer {
				out.Bad("OnFenced saw epoch %d, want %d", fencedBy, peer)
			}
		}))
	}

	// --- client failover ------------------------------------------------------
	add("failover-client-session-reroutes", true, replScenario(func(l *replLab, out *fault.Outcome) {
		f := l.caughtUp(10, out)
		if f == nil {
			return
		}
		deadAddr := l.addr()
		l.srv.stop()
		if !promoteOrBad(f, 1, out) {
			return
		}
		ns, err := serveLeader(f.Engine(), zeroLag)
		if err != nil {
			out.Bad("serve: %v", err)
			return
		}
		defer ns.stop()
		cl, err := client.New(client.Config{
			Addr: deadAddr, Replicas: []string{ns.addr()},
			QueryRetries: 1,
			RetryBackoff: time.Millisecond, JitterSeed: e.seed,
		})
		if err != nil {
			out.Bad("client: %v", err)
			return
		}
		defer cl.Close()
		sess, err := cl.Session()
		if err != nil {
			out.Bad("leader-targeted session did not fail over: %v", err)
			return
		}
		res, err := sess.Query(replQuery)
		sess.Close()
		if err != nil || len(res.Rows) != 10 {
			out.Bad("post-failover session query: %d rows (%v), want 10", len(res.Rows), err)
		}
		if cl.Leader() != ns.addr() {
			out.Bad("client leader = %s, want the promoted node %s", cl.Leader(), ns.addr())
		}
		if cl.Epoch() != 1 {
			out.Bad("client epoch = %d, want 1", cl.Epoch())
		}
	}))
	add("failover-client-result-epoch", true, replScenario(func(l *replLab, out *fault.Outcome) {
		f := l.caughtUp(5, out)
		if f == nil {
			return
		}
		deadAddr := l.addr()
		l.srv.stop()
		if !promoteOrBad(f, 1, out) {
			return
		}
		ns, err := serveLeader(f.Engine(), zeroLag)
		if err != nil {
			out.Bad("serve: %v", err)
			return
		}
		defer ns.stop()
		cl, err := client.New(client.Config{
			Addr: deadAddr, Replicas: []string{ns.addr()},
			QueryRetries: 1,
			RetryBackoff: time.Millisecond, JitterSeed: e.seed,
		})
		if err != nil {
			out.Bad("client: %v", err)
			return
		}
		defer cl.Close()
		res, err := cl.Exec(replQuery)
		if err != nil {
			out.Bad("exec after failover: %v", err)
			return
		}
		if res.Epoch != 1 {
			out.Bad("Result.Epoch = %d, want 1 (clients watch this for failovers)", res.Epoch)
		}
		if len(res.Rows) != 5 {
			out.Bad("exec rows = %d, want 5", len(res.Rows))
		}
	}))
	add("failover-client-no-replicas-typed-error", true, replScenario(func(l *replLab, out *fault.Outcome) {
		// Without a replica set there is nowhere to go: the client must
		// surface a typed transport error, never hang or invent a leader.
		deadAddr := l.addr()
		l.srv.stop()
		cl, err := client.New(client.Config{
			Addr: deadAddr, QueryRetries: 1,
			RetryBackoff: time.Millisecond, DialTimeout: time.Second, JitterSeed: e.seed,
		})
		if err != nil {
			out.Bad("client: %v", err)
			return
		}
		defer cl.Close()
		if _, err := cl.Exec(replQuery); err == nil {
			out.Bad("exec against a dead leader with no replicas succeeded")
		}
		if cl.Leader() != deadAddr {
			out.Bad("client moved its leader with no replicas configured: %s", cl.Leader())
		}
	}))

	// --- chained promotions ---------------------------------------------------
	// Leadership hops L times; each hop ships its epoch record downstream,
	// so the final node carries epoch L and the union of every timeline's
	// surviving writes.
	for _, hops := range []int{2, 3, 4} {
		hops := hops
		add(fmt.Sprintf("failover-epoch-chain-%d", hops), hops == 2, replScenario(func(l *replLab, out *fault.Outcome) {
			const base = 4
			if err := commit(l.leader, "e", &l.seq, base); err != nil {
				out.Bad("commit: %v", err)
				return
			}
			f, cancel, err := startFollower(l.addr, filepath.Join(l.dir, "h1"), false)
			if err != nil {
				out.Bad("h1: %v", err)
				return
			}
			if !waitConverged(f, l.leader, out) {
				cancel()
				f.Close()
				return
			}
			l.srv.stop()
			want := base
			seq := 0
			var lastSrv *loopback
			for h := 1; h <= hops; h++ {
				epoch, err := f.Promote()
				if err != nil {
					out.Bad("hop %d promote: %v", h, err)
					break
				}
				if epoch != uint64(h) {
					out.Bad("hop %d epoch = %d", h, epoch)
				}
				if err := commit(f.Engine(), "h", &seq, 3); err != nil {
					out.Bad("hop %d commit: %v", h, err)
					break
				}
				want += 3
				if h == hops {
					break
				}
				srv, err := serveLeader(f.Engine(), zeroLag)
				if err != nil {
					out.Bad("hop %d serve: %v", h, err)
					break
				}
				next, cancelN, err := startFollower(srv.addr, filepath.Join(l.dir, fmt.Sprintf("h%d", h+1)), false)
				if err != nil {
					out.Bad("hop %d follower: %v", h, err)
					srv.stop()
					break
				}
				if !waitConverged(next, f.Engine(), out) {
					cancelN()
					next.Close()
					srv.stop()
					break
				}
				// The old hop retires; the next one takes over.
				cancel()
				f.Close()
				if lastSrv != nil {
					lastSrv.stop()
				}
				lastSrv = srv
				f, cancel = next, cancelN
			}
			if lastSrv != nil {
				lastSrv.stop()
			}
			if got := f.Engine().Epoch(); got != uint64(hops) {
				out.Bad("final epoch = %d, want %d", got, hops)
			}
			if got, err := countEmp(f.Engine()); err != nil || got != want {
				out.Bad("final rows = %d, want %d (%v)", got, want, err)
			}
			cancel()
			f.Close()
		}))
	}

	// --- staleness after promotion -------------------------------------------
	// "A leader is a replica with zero lag": a promoted node serving with
	// a zero staleness source must satisfy even the tightest bound.
	add("failover-staleness-zero-after-promote", true, replScenario(func(l *replLab, out *fault.Outcome) {
		f := l.caughtUp(5, out)
		if f == nil {
			return
		}
		l.srv.stop()
		if !promoteOrBad(f, 1, out) {
			return
		}
		ns, err := serveLeader(f.Engine(), zeroLag)
		if err != nil {
			out.Bad("serve: %v", err)
			return
		}
		defer ns.stop()
		cl, err := client.New(client.Config{
			Addr: ns.addr(), QueryRetries: 1,
			RetryBackoff: time.Millisecond, JitterSeed: e.seed,
		})
		if err != nil {
			out.Bad("client: %v", err)
			return
		}
		defer cl.Close()
		sess, err := cl.Session()
		if err != nil {
			out.Bad("session: %v", err)
			return
		}
		defer sess.Close()
		if _, err := sess.Option("max_staleness", "1ms"); err != nil {
			out.Bad("max_staleness on promoted node: %v", err)
			return
		}
		if res, err := sess.Query(replQuery); err != nil || len(res.Rows) != 5 {
			out.Bad("bounded-staleness read on promoted node: %d rows (%v)", len(res.Rows), err)
		}
	}))

	return scs
}
