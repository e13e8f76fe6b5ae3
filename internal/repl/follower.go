package repl

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/obs"
	"tcodm/internal/wal"
	"tcodm/internal/wire"
)

// FollowerConfig parameterizes a Follower. Leader and Path are required.
type FollowerConfig struct {
	Leader string // leader wire address, e.g. "leader:7483"
	Path   string // local database file (owned by this follower)

	// Open is the option template for the local engine; Path and Follower
	// are overridden, and follower mode force-disables the time and value
	// indexes regardless of what it says.
	Open core.Options

	// Dial replaces the default TCP dialer (fault-injection seam).
	Dial func(ctx context.Context, addr string) (net.Conn, error)

	// OnSwap fires after a snapshot bootstrap replaced the engine — the
	// serving layer must stop routing queries to old (already closed) and
	// start using next.
	OnSwap func(old, next *core.Engine)

	ReadTimeout time.Duration // max silence from the leader (default 10s)

	// Backoff is the base reconnect delay after a failure (default 500ms).
	// Consecutive failures without stream progress double it up to
	// MaxBackoff (default 10s), plus up to 50% seeded jitter — the same
	// policy as the client's retry loop — so a flapping leader is not
	// hammered in lockstep by every follower.
	Backoff    time.Duration
	MaxBackoff time.Duration
	JitterSeed int64 // 0 = seed from wall clock

	// ForceSnapshot makes the first subscription ask the leader for a
	// full snapshot regardless of log availability, discarding all local
	// history — the operator-initiated "rejoin from scratch" used to
	// demote an ex-leader whose timeline diverged.
	ForceSnapshot bool

	Logf func(format string, args ...any)
}

// Follower owns a replica database: it maintains the connection to the
// leader, applies the shipped log, installs bootstrap snapshots, and
// tracks how fresh the local store is.
type Follower struct {
	cfg FollowerConfig

	mu  sync.RWMutex // guards eng across snapshot swaps
	eng *core.Engine

	// freshAsOf is the wall-clock instant (unix nanos) at which the store
	// was last known to be caught up with the leader; 0 = never. Staleness
	// is measured from it locally, so leader and follower clocks need not
	// agree.
	freshAsOf atomic.Int64

	// leaderEpoch is the highest replication epoch heard from the leader
	// (watermarks and fences); Promote bumps past it. needSnapshot makes
	// the next subscription request a full snapshot — set by a fence or
	// by cfg.ForceSnapshot, cleared by a successful bootstrap. promoted
	// flips once Promote succeeds: streaming is over for good.
	leaderEpoch atomic.Uint64
	needSnap    atomic.Bool
	promoted    atomic.Bool
	progressed  atomic.Bool // stream produced frames since the last reconnect decision

	// connMu guards the live stream connection so Promote can sever it.
	connMu sync.Mutex
	conn   net.Conn

	// digMu guards the leader's last shipped store digest and the
	// frontier it was computed at — the evidence Promote checks its own
	// replayed history against.
	digMu  sync.Mutex
	digLSN uint64
	dig    []byte

	watermarkG  *obs.Gauge
	lagLSNs     *obs.Gauge
	lagMS       *obs.Gauge
	applied     *obs.Counter
	reconnects  *obs.Counter
	bootstraps  *obs.Counter
	streamDrops *obs.Counter
	fencedC     *obs.Counter
}

// ErrDiverged reports that a follower's replayed history does not match
// the leader's last shipped store digest at the same frontier: the local
// store is not a faithful prefix of the leader's timeline and must not be
// promoted. Rejoin via snapshot instead.
var ErrDiverged = errors.New("repl: local history diverged from the leader's shipped digest")

// StartFollower opens (creating if absent) the local replica database. A
// fresh directory is valid: the first subscription starts at LSN 1 and the
// leader either streams its whole log or interposes a snapshot.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Leader == "" || cfg.Path == "" {
		return nil, fmt.Errorf("repl: follower needs Leader and Path")
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 10 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 10 * time.Second
	}
	if cfg.MaxBackoff < cfg.Backoff {
		cfg.MaxBackoff = cfg.Backoff
	}
	f := &Follower{cfg: cfg}
	f.needSnap.Store(cfg.ForceSnapshot)
	eng, err := f.openEngine()
	if err != nil {
		return nil, err
	}
	f.setEngine(eng)
	f.leaderEpoch.Store(eng.Epoch())
	return f, nil
}

func (f *Follower) openEngine() (*core.Engine, error) {
	opts := f.cfg.Open
	opts.Path = f.cfg.Path
	opts.Follower = true
	opts.ReadOnly = false
	return core.Open(opts)
}

func (f *Follower) setEngine(eng *core.Engine) {
	f.mu.Lock()
	f.eng = eng
	reg := eng.Metrics()
	f.watermarkG = reg.Gauge("repl.watermark_lsn")
	f.lagLSNs = reg.Gauge("repl.lag_lsns")
	f.lagMS = reg.Gauge("repl.lag_ms")
	f.applied = reg.Counter("repl.records_applied")
	f.reconnects = reg.Counter("repl.reconnects")
	f.bootstraps = reg.Counter("repl.snapshot_bootstraps")
	f.streamDrops = reg.Counter("repl.stream_drops")
	f.fencedC = reg.Counter("repl.fenced")
	f.watermarkG.Set(int64(eng.Watermark()))
	f.mu.Unlock()
}

// SetOnSwap installs the snapshot-swap callback after construction — the
// serving layer that needs it usually does not exist yet when the
// follower starts. Must be called before Run.
func (f *Follower) SetOnSwap(fn func(old, next *core.Engine)) { f.cfg.OnSwap = fn }

// Engine returns the current local engine. The pointer is invalidated by
// a snapshot bootstrap — long-lived holders must use OnSwap.
func (f *Follower) Engine() *core.Engine {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.eng
}

// Watermark returns the highest replicated LSN the local store reflects.
func (f *Follower) Watermark() uint64 { return f.Engine().Watermark() }

// Staleness reports how long ago the store was last known to be caught up
// with the leader. A connected, keeping-up follower reads on the order of
// the leader's heartbeat interval; a partitioned one grows without bound;
// a follower that has never reached the leader returns a year. A promoted
// follower IS the leader — its staleness is zero by definition.
func (f *Follower) Staleness() time.Duration {
	if f.promoted.Load() {
		return 0
	}
	at := f.freshAsOf.Load()
	if at == 0 {
		return 365 * 24 * time.Hour
	}
	return time.Since(time.Unix(0, at))
}

// Close shuts the local engine down.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eng.Close()
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

func (f *Follower) dial(ctx context.Context) (net.Conn, error) {
	if f.cfg.Dial != nil {
		return f.cfg.Dial(ctx, f.cfg.Leader)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", f.cfg.Leader)
}

// Run replicates until ctx is cancelled, reconnecting with jittered
// exponential backoff across leader restarts and network faults. It
// returns ctx.Err() — every other failure is retried, because a
// follower's job is to converge eventually — except promotion, which
// ends replication for good and returns nil.
func (f *Follower) Run(ctx context.Context) error {
	seed := f.cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	attempt := 0
	for {
		err := f.runOnce(ctx)
		if f.promoted.Load() {
			return nil
		}
		if err != nil && ctx.Err() == nil {
			f.streamDrops.Inc()
			f.logf("repl: stream to %s failed: %v (retrying in ~%s)", f.cfg.Leader, err, f.backoff(attempt, nil))
		}
		// A stream that made progress before dying resets the backoff —
		// the exponential curve is for a leader that is down, not one that
		// blipped.
		if f.progressed.Swap(false) {
			attempt = 0
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(f.backoff(attempt, rng)):
		}
		if attempt < 30 {
			attempt++
		}
		f.reconnects.Inc()
	}
}

// backoff computes the reconnect delay for the given consecutive-failure
// count: base doubled per attempt, capped at MaxBackoff, plus up to 50%
// jitter — mirroring the client's retry loop. A nil rng yields the
// deterministic base (used for log messages).
func (f *Follower) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := f.cfg.Backoff
	for i := 0; i < attempt && d < f.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > f.cfg.MaxBackoff {
		d = f.cfg.MaxBackoff
	}
	if rng != nil {
		d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	}
	return d
}

// runOnce runs one subscription: dial, handshake, subscribe from the
// current watermark, then apply frames until something breaks.
func (f *Follower) runOnce(ctx context.Context) error {
	if f.promoted.Load() {
		return nil
	}
	conn, err := f.dial(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	f.setConn(conn)
	defer f.setConn(nil)
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetWriteDeadline(time.Now().Add(f.cfg.ReadTimeout))
	if err := wire.WriteFrame(conn, wire.FrameHello, wire.EncodeHello("tcodm-repl")); err != nil {
		return err
	}
	fr, err := f.readFrame(conn, br)
	if err != nil {
		return err
	}
	if fr.Type != wire.FrameWelcome {
		return fmt.Errorf("repl: expected Welcome, got frame 0x%02x", fr.Type)
	}
	eng := f.Engine()
	req := wire.SubscribeReq{FromLSN: eng.Watermark() + 1, Epoch: f.epoch()}
	if f.needSnap.Load() {
		req.Flags |= wire.SubscribeFlagSnapshot
	}
	conn.SetWriteDeadline(time.Now().Add(f.cfg.ReadTimeout))
	if err := wire.WriteFrame(conn, wire.FrameSubscribe, wire.EncodeSubscribeReq(req)); err != nil {
		return err
	}
	f.logf("repl: subscribed to %s from LSN %d (epoch %d, flags %#x)", f.cfg.Leader, req.FromLSN, req.Epoch, req.Flags)

	for {
		fr, err := f.readFrame(conn, br)
		if err != nil {
			return err
		}
		f.progressed.Store(true)
		switch fr.Type {
		case wire.FrameLogBatch:
			recs, _, err := wal.DecodeRecordStream(fr.Payload)
			if err != nil {
				return fmt.Errorf("repl: corrupt log batch: %w", err)
			}
			wm, err := f.Engine().ApplyReplicated(recs)
			if err != nil {
				return fmt.Errorf("repl: apply: %w", err)
			}
			f.applied.Add(uint64(len(recs)))
			f.watermarkG.Set(int64(wm))
		case wire.FrameWatermark:
			wmk, err := wire.DecodeWatermarkInfo(fr.Payload)
			if err != nil {
				return err
			}
			f.noteLeaderEpoch(wmk.Epoch)
			if len(wmk.Digest) == wire.StoreDigestLen {
				f.digMu.Lock()
				f.digLSN, f.dig = wmk.LSN, wmk.Digest
				f.digMu.Unlock()
			}
			wm := f.Engine().Watermark()
			lag := int64(0)
			if wmk.LSN > wm {
				lag = int64(wmk.LSN - wm)
			}
			f.lagLSNs.Set(lag)
			if lag == 0 {
				// Caught up as of this heartbeat's arrival; staleness is
				// measured from here on our own clock.
				f.freshAsOf.Store(time.Now().UnixNano())
			}
			f.lagMS.Set(int64(f.Staleness() / time.Millisecond))
		case wire.FrameSnapshotOffer:
			startLSN, size, err := wire.DecodeSnapshotOffer(fr.Payload)
			if err != nil {
				return err
			}
			if err := f.bootstrap(conn, br, startLSN, size); err != nil {
				return fmt.Errorf("repl: snapshot bootstrap: %w", err)
			}
		case wire.FrameFence:
			return f.handleFence(fr.Payload)
		case wire.FrameError:
			code, msg, detail, _ := wire.DecodeError(fr.Payload)
			return fmt.Errorf("repl: leader error %d: %s (%s)", code, msg, detail)
		default:
			return fmt.Errorf("repl: unexpected frame 0x%02x on replication stream", fr.Type)
		}
	}
}

// handleFence reacts to the source refusing this follower's history. When
// the source is at a HIGHER epoch, this node is the resurrected old
// leader (or a peer of one): its WAL suffix above the epoch-start LSN was
// never shipped and now belongs to a dead timeline. Redo-only replication
// cannot unapply it, so the discard is loud and total — the next
// subscription requests a full snapshot, whose installation drops the
// local WAL and store wholesale. When the source is at a lower-or-equal
// epoch, the SOURCE is the stale one; keep our state and keep retrying
// (the operator repoints the follower, or the source rejoins).
func (f *Follower) handleFence(payload []byte) error {
	fence, err := wire.DecodeFence(payload)
	if err != nil {
		return err
	}
	f.fencedC.Inc()
	local := f.epoch()
	if fence.Epoch <= local {
		f.logf("repl: leader %s is stale (its epoch %d <= local %d); keeping local state", f.cfg.Leader, fence.Epoch, local)
		return fmt.Errorf("repl: fenced by stale leader: %s", fence.Msg)
	}
	f.noteLeaderEpoch(fence.Epoch)
	appended := f.Engine().Watermark()
	var unshipped uint64
	if appended > fence.EpochStart {
		unshipped = appended - fence.EpochStart
	}
	f.needSnap.Store(true)
	f.logf("repl: FENCED by %s at epoch %d: %s — DISCARDING %d unshipped WAL records above epoch-start LSN %d (local frontier %d) and rejoining via snapshot",
		f.cfg.Leader, fence.Epoch, fence.Msg, unshipped, fence.EpochStart, appended)
	return fmt.Errorf("repl: fenced at epoch %d (rejoining via snapshot): %s", fence.Epoch, fence.Msg)
}

// epoch returns the local store's epoch, never lower than what the leader
// has told us — the subscribe epoch must reflect everything we know, or a
// just-bootstrapped follower could present epoch 0 to a newer leader.
func (f *Follower) epoch() uint64 {
	e := f.Engine().Epoch()
	if le := f.leaderEpoch.Load(); le > e {
		e = le
	}
	return e
}

func (f *Follower) noteLeaderEpoch(e uint64) {
	for {
		cur := f.leaderEpoch.Load()
		if e <= cur || f.leaderEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

func (f *Follower) setConn(c net.Conn) {
	f.connMu.Lock()
	f.conn = c
	f.connMu.Unlock()
}

// Promote turns this follower into the leader: streaming stops, the
// replayed history is verified against the leader's last shipped store
// digest when one is available at the exact local frontier (mismatch is
// the typed ErrDiverged — promoting a diverged store would fork the
// timeline), the engine opens read-write, and the epoch is bumped past
// everything this node ever heard. The caller then serves the engine as
// a repl.Source; Run returns nil on its next wakeup.
//
// The digest check is evidence, not proof: if the leader died before
// shipping a digest at this frontier, promotion proceeds with a logged
// warning — refusing would trade a detectable risk for guaranteed
// unavailability.
func (f *Follower) Promote() (uint64, error) {
	if f.promoted.Load() {
		return 0, fmt.Errorf("repl: already promoted")
	}
	// Sever the stream first: no new batches land while we examine the
	// frontier (ApplyReplicated and core.Promote serialize on the engine
	// lock, so a batch already in flight either fully lands before the
	// check or fails after the flip — never half).
	f.connMu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.connMu.Unlock()

	eng := f.Engine()
	wm := eng.Watermark()
	f.digMu.Lock()
	digLSN, dig := f.digLSN, f.dig
	f.digMu.Unlock()
	if len(dig) == wire.StoreDigestLen && digLSN == wm {
		own, err := eng.DigestStore()
		if err != nil {
			return 0, fmt.Errorf("repl: promote digest check: %w", err)
		}
		if !bytes.Equal(own, dig) {
			return 0, fmt.Errorf("%w (frontier LSN %d)", ErrDiverged, wm)
		}
		f.logf("repl: promote: store digest verified against leader's at LSN %d", wm)
	} else {
		f.logf("repl: promote: no leader digest at local frontier %d (last shipped at %d); skipping divergence check", wm, digLSN)
	}
	epoch, err := eng.Promote(f.leaderEpoch.Load())
	if err != nil {
		return 0, err
	}
	f.promoted.Store(true)
	f.freshAsOf.Store(time.Now().UnixNano())
	f.lagLSNs.Set(0)
	f.lagMS.Set(0)
	f.watermarkG.Set(int64(eng.Watermark()))
	f.logf("repl: PROMOTED to epoch %d at LSN %d; ex-leader %s is fenced", epoch, eng.Watermark(), f.cfg.Leader)
	return epoch, nil
}

// Promoted reports whether Promote has succeeded on this follower.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

func (f *Follower) readFrame(conn net.Conn, br *bufio.Reader) (wire.Frame, error) {
	conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
	return wire.ReadFrame(br)
}

// snapshotSplitter separates the snapshot stream back into its two files:
// an 8-byte big-endian device byte count, that many device bytes, then the
// cold archive's content (possibly empty, never negative — the count is
// validated against the promised total upstream by the size check).
type snapshotSplitter struct {
	db, arc  *os.File
	hdr      [8]byte
	hdrGot   int
	devBytes uint64
	devGot   uint64
}

func (s *snapshotSplitter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.hdrGot < 8 {
			c := copy(s.hdr[s.hdrGot:], p)
			s.hdrGot += c
			p = p[c:]
			if s.hdrGot == 8 {
				s.devBytes = binary.BigEndian.Uint64(s.hdr[:])
			}
			continue
		}
		if s.devGot < s.devBytes {
			c := uint64(len(p))
			if c > s.devBytes-s.devGot {
				c = s.devBytes - s.devGot
			}
			if _, err := s.db.Write(p[:c]); err != nil {
				return n, err
			}
			s.devGot += c
			p = p[c:]
			continue
		}
		if _, err := s.arc.Write(p); err != nil {
			return n, err
		}
		p = nil
	}
	return n, nil
}

// bootstrap receives a snapshot into temp files (device and cold archive),
// verifies the size and digest, and swaps the local database underneath
// the serving layer: the old engine closes (releasing its writer lease),
// the snapshot files are renamed into place, the stale local log is
// dropped, and a fresh follower engine opens at the snapshot's LSN.
// Queries racing the swap fail with "database closed" until OnSwap
// installs the new engine — a bounded, explicit window, never a wrong
// answer.
func (f *Follower) bootstrap(conn net.Conn, br *bufio.Reader, startLSN, size uint64) error {
	f.logf("repl: receiving snapshot (start LSN %d, %d bytes)", startLSN, size)
	tmpPath := f.cfg.Path + ".snap"
	arcTmpPath := f.cfg.Path + ".snap.arc"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath)
	arcTmp, err := os.Create(arcTmpPath)
	if err != nil {
		tmp.Close()
		return err
	}
	defer os.Remove(arcTmpPath)
	closeBoth := func() { tmp.Close(); arcTmp.Close() }
	split := &snapshotSplitter{db: tmp, arc: arcTmp}
	h := sha256.New()
	var got uint64
	var digest []byte
recv:
	for {
		fr, err := f.readFrame(conn, br)
		if err != nil {
			closeBoth()
			return err
		}
		switch fr.Type {
		case wire.FrameSnapshotChunk:
			if _, err := split.Write(fr.Payload); err != nil {
				closeBoth()
				return err
			}
			h.Write(fr.Payload)
			got += uint64(len(fr.Payload))
		case wire.FrameSnapshotDone:
			digest, err = wire.DecodeSnapshotDone(fr.Payload)
			if err != nil {
				closeBoth()
				return err
			}
			break recv
		default:
			closeBoth()
			return fmt.Errorf("unexpected frame 0x%02x inside snapshot", fr.Type)
		}
	}
	if got != size {
		closeBoth()
		return fmt.Errorf("snapshot promised %d bytes, received %d", size, got)
	}
	if !bytes.Equal(h.Sum(nil), digest) {
		closeBoth()
		return fmt.Errorf("snapshot digest mismatch")
	}
	if split.hdrGot < 8 || split.devGot < split.devBytes {
		closeBoth()
		return fmt.Errorf("snapshot truncated: device section incomplete")
	}
	if err := tmp.Sync(); err != nil {
		closeBoth()
		return err
	}
	if err := arcTmp.Sync(); err != nil {
		closeBoth()
		return err
	}
	if err := tmp.Close(); err != nil {
		arcTmp.Close()
		return err
	}
	if err := arcTmp.Close(); err != nil {
		return err
	}

	f.mu.Lock()
	old := f.eng
	if err := old.Close(); err != nil {
		f.mu.Unlock()
		return fmt.Errorf("closing old engine: %w", err)
	}
	if err := os.Rename(tmpPath, f.cfg.Path); err != nil {
		f.mu.Unlock()
		return err
	}
	if err := os.Rename(arcTmpPath, f.cfg.Path+".arc"); err != nil {
		f.mu.Unlock()
		return err
	}
	// The local log predates the snapshot; the stream resumes at startLSN.
	if err := os.Remove(f.cfg.Path + ".wal"); err != nil && !os.IsNotExist(err) {
		f.mu.Unlock()
		return err
	}
	f.mu.Unlock()
	next, err := f.openEngine()
	if err != nil {
		return fmt.Errorf("opening bootstrapped engine: %w", err)
	}
	f.setEngine(next)
	f.bootstraps.Inc()
	f.needSnap.Store(false)
	f.noteLeaderEpoch(next.Epoch())
	if f.cfg.OnSwap != nil {
		f.cfg.OnSwap(old, next)
	}
	f.logf("repl: snapshot installed, resuming at LSN %d", startLSN)
	return nil
}
