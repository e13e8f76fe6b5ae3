package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrGap reports that a cursor's position has been truncated away by a
// checkpoint (or predates the log file entirely): the records it needs can
// no longer be read from the file. A replication follower hitting ErrGap
// must fall back to a snapshot bootstrap.
var ErrGap = errors.New("wal: cursor position truncated away (snapshot required)")

// Cursor is an incremental reader over the committed tail of the log. It is
// the leader-side feed for WAL shipping: each Read returns whole commit
// groups, in LSN order, never splitting a group across batches. A cursor
// tolerates checkpoints racing with it — truncation resets its file offset
// and, when the records it still needs were truncated away, Read returns
// ErrGap rather than silently skipping them.
//
// Cursors are owned by one goroutine each; the WAL's own mutex serializes
// them against appends and checkpoints.
type Cursor struct {
	w     *WAL
	off   int64  // file offset of the next unread frame
	next  uint64 // next LSN the consumer expects
	epoch uint64 // truncation epoch the offset is valid for
}

// Cursor opens a cursor whose first Read returns the earliest committed
// record with LSN >= fromLSN.
func (w *WAL) Cursor(fromLSN uint64) *Cursor {
	if fromLSN == 0 {
		fromLSN = 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return &Cursor{w: w, next: fromLSN, epoch: w.truncations}
}

// Next returns the LSN the cursor expects to read next.
func (c *Cursor) Next() uint64 {
	c.w.mu.Lock()
	defer c.w.mu.Unlock()
	return c.next
}

// Read returns the next batch of committed records: at least one whole
// commit group when data is available, at most maxRecords except that the
// final group is always completed (the last record of a non-empty batch is
// guaranteed to be an OpCommit marker). An empty batch with a nil error
// means the cursor is caught up; pair it with AppendWatch to block for
// more. Read never returns records of uncommitted transactions because the
// file itself never contains them (commit groups are appended atomically),
// and with SyncOnCommit it returns only durable groups: a follower never
// holds a group its leader could still lose.
func (c *Cursor) Read(maxRecords int) ([]Record, error) {
	if maxRecords <= 0 {
		maxRecords = 1
	}
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if c.epoch != w.truncations {
		// A checkpoint truncated the file since the last read: every offset
		// is invalid. Restart the scan from the top of the (new) file.
		c.off = 0
		c.epoch = w.truncations
	}
	if c.next <= w.truncLSN {
		return nil, ErrGap
	}
	end := w.size
	if w.opts.SyncOnCommit {
		end = w.durableEnd
	}
	if c.off >= end {
		return nil, nil // caught up
	}
	data := make([]byte, end-c.off)
	n, err := w.f.ReadAt(data, c.off)
	if err != nil && n < len(data) {
		return nil, fmt.Errorf("wal: cursor read: %w", err)
	}
	var out []Record
	off := 0
	for off+frameHeaderLen <= len(data) {
		if len(out) >= maxRecords && out[len(out)-1].Op == OpCommit {
			break
		}
		frameLen, payload, ok := frameAt(data, off)
		if !ok {
			break // torn or corrupt tail: treat as end of log
		}
		r, err := decodeRecord(payload)
		if err != nil {
			break
		}
		off += frameLen
		if r.LSN < c.next {
			// Already consumed (overlap after an offset reset); the commit
			// groups below c.next were fully delivered, so skipping whole
			// records here can never split a group.
			c.off += int64(frameLen)
			continue
		}
		out = append(out, r)
		c.next = r.LSN + 1
		c.off += int64(frameLen)
	}
	if len(out) > 0 && out[len(out)-1].Op != OpCommit {
		// The scan ran out of intact bytes mid-group. On a live log this
		// cannot happen (groups are appended under the same mutex), so the
		// tail must be torn garbage from a prior crash that recovery has
		// not repaired; surface it rather than ship a partial group.
		return nil, fmt.Errorf("wal: cursor hit incomplete commit group at LSN %d", out[len(out)-1].LSN)
	}
	return out, nil
}

// frameAt decodes the frame header at off and verifies its checksum,
// returning the total frame length and payload.
func frameAt(data []byte, off int) (int, []byte, bool) {
	n := int(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if n < 0 || off+frameHeaderLen+n > len(data) {
		return 0, nil, false
	}
	payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, false
	}
	return frameHeaderLen + n, payload, true
}

// AppendWatch returns a channel that is closed the next time committed
// records become readable by cursors (with SyncOnCommit: become durable).
// Callers re-arm by calling it again; a typical tailing loop is: Read
// until empty, select on AppendWatch + timeout.
func (w *WAL) AppendWatch() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.notify == nil {
		w.notify = make(chan struct{})
	}
	return w.notify
}

// wakeLocked fires the append notification. Caller holds w.mu.
func (w *WAL) wakeLocked() {
	if w.notify != nil {
		close(w.notify)
		w.notify = nil
	}
}

// AppendedLSN returns the highest LSN written to the log file.
func (w *WAL) AppendedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// AppendGroups appends whole commit groups received from a replication
// leader to this (follower-local) log, preserving their original LSNs. The
// batch must be complete groups in ascending LSN order, each ending with an
// OpCommit marker — exactly what a Cursor.Read on the leader produced.
// Groups whose commit LSN is at or below the current appended LSN are
// skipped (reconnect overlap); the records actually appended are returned
// so the caller can apply exactly those.
func (w *WAL) AppendGroups(recs []Record) ([]Record, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.ReadOnly {
		return nil, fmt.Errorf("wal: append on read-only log")
	}
	if w.txn != 0 {
		return nil, fmt.Errorf("wal: AppendGroups during active transaction %d", w.txn)
	}
	if len(recs) == 0 {
		return nil, nil
	}
	if recs[len(recs)-1].Op != OpCommit {
		return nil, fmt.Errorf("wal: AppendGroups batch does not end with a commit marker")
	}
	var fresh []Record
	var buf []byte
	prev := uint64(0)
	group := 0 // start index of the current group in recs
	for i, r := range recs {
		if r.LSN <= prev {
			return nil, fmt.Errorf("wal: AppendGroups LSNs not ascending (%d after %d)", r.LSN, prev)
		}
		prev = r.LSN
		if r.Op != OpCommit {
			continue
		}
		if r.LSN > w.appended {
			for _, g := range recs[group : i+1] {
				buf = appendRecord(buf, g)
				fresh = append(fresh, g)
			}
		}
		group = i + 1
	}
	if group != len(recs) {
		return nil, fmt.Errorf("wal: AppendGroups batch ends mid-group")
	}
	if len(buf) == 0 {
		return nil, nil // everything was overlap
	}
	last := fresh[len(fresh)-1].LSN
	if err := w.appendLocked(buf, last, len(fresh)); err != nil {
		return nil, err
	}
	if last >= w.nextLSN {
		w.nextLSN = last + 1
	}
	if w.opts.SyncOnCommit {
		if err := w.syncLocked(last); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}
