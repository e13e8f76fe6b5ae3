package storage

import (
	"encoding/binary"
	"fmt"

	"tcodm/internal/obs"
)

// RID identifies a record in the heap: a page number and a slot within it.
// A record's RID is stable for its lifetime: if the record outgrows its
// page it moves, leaving a forwarding stub at the home RID.
type RID struct {
	Page PageID
	Slot uint16
}

// IsValid reports whether the RID denotes a record. Page 0 is the meta
// page and never holds heap records, so the zero RID is the "no record"
// sentinel.
func (r RID) IsValid() bool { return r.Page != 0 && r.Page != InvalidPage }

// NilRID is the zero "no record" value. (Page 0 is the meta page and never
// holds heap records, so {0,0} is safe as a sentinel.)
var NilRID = RID{}

// Pack encodes the RID as a uint64 for storage in records and keys.
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID decodes a RID packed by Pack.
func UnpackRID(u uint64) RID {
	return RID{Page: PageID(u >> 16), Slot: uint16(u & 0xFFFF)}
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Record header flags (first byte of every stored heap record).
const (
	flagPlain    byte = 0x00
	flagForward  byte = 0x01 // payload: 8-byte target RID
	flagOverflow byte = 0x02 // payload: 4-byte total length, 4-byte first page
	flagMoved    byte = 0x04 // payload prefixed with 8-byte home RID
)

// UndoRecorder captures before-images of heap mutations so an aborting
// transaction can roll its effects back in memory (the log is redo-only).
// A nil recorder disables capture.
type UndoRecorder interface {
	RecordInsert(rid RID)
	RecordUpdate(rid RID, prior []byte)
	RecordDelete(rid RID, prior []byte)
}

// RedoLogger receives the physical redo stream of heap mutations. Each Log
// call returns the LSN assigned to the mutation; the heap stamps it on the
// affected page so recovery can skip already-applied changes. A nil logger
// disables logging (used for unlogged databases and for undo operations).
type RedoLogger interface {
	LogHeapInsert(rid RID, data []byte) uint64
	LogHeapUpdate(rid RID, data []byte) uint64
	LogHeapDelete(rid RID) uint64
}

// Heap is the record manager: variable-length records addressed by stable
// RIDs, with forwarding for grown records and overflow chains for records
// larger than a page. A database has exactly one heap; the page type byte
// identifies its pages.
type Heap struct {
	pool *BufferPool
	log  RedoLogger

	// txnActive marks mutations as belonging to an uncommitted
	// transaction: pages they dirty become unevictable (no-steal) until
	// the transaction layer calls EndTxn on the pool.
	txnActive bool
	undo      UndoRecorder

	// freeSpace maps heap pages to their current free byte counts; it is
	// rebuilt on open and maintained on every mutation.
	freeSpace map[PageID]int

	// touched accumulates every page the current logged mutation physically
	// modifies, so its LSN can be stamped on all of them. A record move
	// dirties the home page (stub) and the target page (copy); stamping
	// only the home would let the pool flush the target before the log
	// record covering it is durable, breaking the WAL rule.
	touched []PageID

	met heapMetrics
}

// heapMetrics holds the heap's instrumentation handles (nil = no-op).
// Page-level I/O cost is already covered by the pool; the heap layer adds
// record-level access shape: fetches, forwarding hops, and overflow-chain
// walks with their length distribution.
type heapMetrics struct {
	fetches       *obs.Counter
	forwardHops   *obs.Counter
	overflowWalks *obs.Counter
	overflowLen   *obs.Histogram // pages per overflow-chain walk
}

// SetMetrics binds the heap's instrumentation to reg under "heap.*" names.
// A nil registry disables instrumentation (the default).
func (h *Heap) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		h.met = heapMetrics{}
		return
	}
	h.met = heapMetrics{
		fetches:       reg.Counter("heap.fetches"),
		forwardHops:   reg.Counter("heap.forward_hops"),
		overflowWalks: reg.Counter("heap.overflow_walks"),
		overflowLen:   reg.Histogram("heap.overflow_chain"),
	}
}

// NewHeap creates a heap over the pool. Call Recover or Rebuild before use
// on an existing database.
func NewHeap(pool *BufferPool, log RedoLogger) *Heap {
	return &Heap{pool: pool, log: log, freeSpace: map[PageID]int{}}
}

// SetLogger replaces the redo logger (nil disables logging).
func (h *Heap) SetLogger(log RedoLogger) { h.log = log }

// SetTxnActive toggles transaction mode: while active, dirtied pages are
// pinned against eviction until the transaction ends.
func (h *Heap) SetTxnActive(active bool) { h.txnActive = active }

// SetUndoRecorder installs (or removes, with nil) the before-image sink.
func (h *Heap) SetUndoRecorder(u UndoRecorder) { h.undo = u }

// Rebuild scans the device and reconstructs the free-space map.
func (h *Heap) Rebuild(dev Device) error {
	h.freeSpace = map[PageID]int{}
	n := dev.NumPages()
	for id := PageID(1); id < n; id++ {
		p, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		if p.Type() == PageHeap {
			h.freeSpace[id] = p.FreeSpace()
		}
		h.pool.Unpin(p)
	}
	return nil
}

// threshold below which a page is no longer offered for fresh inserts.
const minUsableFree = 64

// Insert stores data, returning its home RID.
func (h *Heap) Insert(data []byte) (RID, error) {
	h.touched = h.touched[:0]
	rid, err := h.insertPhysical(h.encodePlainOrOverflow(data, NilRID))
	if err != nil {
		return NilRID, err
	}
	if h.log != nil {
		lsn := h.log.LogHeapInsert(rid, data)
		h.stampTouched(rid.Page, lsn)
	}
	if h.undo != nil {
		h.undo.RecordInsert(rid)
	}
	return rid, nil
}

// encodePlainOrOverflow builds the physical record for payload data. If the
// record must spill to overflow pages, the chain is written immediately
// (forced to the device) and the head record references it. home != NilRID
// marks the record as moved from home.
func (h *Heap) encodePlainOrOverflow(data []byte, home RID) []byte {
	headerLen := 1
	if home.IsValid() {
		headerLen += 8
	}
	if headerLen+len(data) <= MaxHeapRecord {
		rec := make([]byte, 0, headerLen+len(data))
		flag := flagPlain
		if home.IsValid() {
			flag |= flagMoved
		}
		rec = append(rec, flag)
		if home.IsValid() {
			rec = binary.LittleEndian.AppendUint64(rec, home.Pack())
		}
		return append(rec, data...)
	}
	first, err := h.writeOverflowChain(data)
	if err != nil {
		// Surface the error through the insert path by returning a record
		// that cannot be stored; callers treat chain failures as fatal.
		panic(fmt.Sprintf("storage: overflow chain write failed: %v", err))
	}
	flag := flagOverflow
	if home.IsValid() {
		flag |= flagMoved
	}
	rec := []byte{flag}
	if home.IsValid() {
		rec = binary.LittleEndian.AppendUint64(rec, home.Pack())
	}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(data)))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(first))
	return rec
}

const overflowHeaderLen = 18 // pageLSN(8) + type(1) + pad(3) + next(4) + used(2)
const overflowPayload = PageSize - overflowHeaderLen

// writeOverflowChain stores data across dedicated overflow pages, forcing
// them to the device immediately. Chains are immutable: updates write a new
// chain and free the old one, so a flushed head record never references an
// unflushed chain.
func (h *Heap) writeOverflowChain(data []byte) (PageID, error) {
	var first, prev PageID = InvalidPage, InvalidPage
	var prevPage *Page
	for off := 0; off < len(data); {
		p, err := h.pool.Allocate()
		if err != nil {
			return InvalidPage, err
		}
		p.SetType(PageOverflow)
		n := len(data) - off
		if n > overflowPayload {
			n = overflowPayload
		}
		binary.LittleEndian.PutUint32(p.data[12:], uint32(InvalidPage))
		binary.LittleEndian.PutUint16(p.data[16:], uint16(n))
		copy(p.data[overflowHeaderLen:], data[off:off+n])
		off += n
		if first == InvalidPage {
			first = p.ID()
		}
		if prevPage != nil {
			binary.LittleEndian.PutUint32(prevPage.data[12:], uint32(p.ID()))
			prevPage.MarkDirty(false)
			if err := h.forceFlush(prevPage); err != nil {
				return InvalidPage, err
			}
			h.pool.Unpin(prevPage)
		}
		prev = p.ID()
		prevPage = p
		_ = prev
	}
	if prevPage != nil {
		prevPage.MarkDirty(false)
		if err := h.forceFlush(prevPage); err != nil {
			return InvalidPage, err
		}
		h.pool.Unpin(prevPage)
	}
	return first, nil
}

// forceFlush writes a single page straight through to the device.
func (h *Heap) forceFlush(p *Page) error {
	h.pool.mu.Lock()
	defer h.pool.mu.Unlock()
	return h.pool.flushFrameLocked(p)
}

// readOverflowChain reassembles an overflow record, charging the pages it
// touches to acc (nil = uncharged).
func (h *Heap) readOverflowChain(first PageID, total uint32, acc *obs.Resources) ([]byte, error) {
	h.met.overflowWalks.Inc()
	pages := uint64(0)
	out := make([]byte, 0, total)
	id := first
	for id != InvalidPage {
		pages++
		p, err := h.pool.Fetch(id)
		if err != nil {
			return nil, err
		}
		if p.Type() != PageOverflow {
			h.pool.Unpin(p)
			return nil, fmt.Errorf("storage: page %d in overflow chain has type %d", id, p.Type())
		}
		next := PageID(binary.LittleEndian.Uint32(p.data[12:]))
		used := binary.LittleEndian.Uint16(p.data[16:])
		out = append(out, p.data[overflowHeaderLen:overflowHeaderLen+int(used)]...)
		h.pool.Unpin(p)
		id = next
	}
	if uint32(len(out)) != total {
		return nil, fmt.Errorf("storage: overflow chain yielded %d bytes, header says %d", len(out), total)
	}
	h.met.overflowLen.Record(pages)
	acc.Add(obs.Resources{Pages: pages})
	return out, nil
}

// freeOverflowChain returns the chain's pages to the free list.
func (h *Heap) freeOverflowChain(first PageID) error {
	id := first
	for id != InvalidPage {
		p, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		next := PageID(binary.LittleEndian.Uint32(p.data[12:]))
		h.pool.Unpin(p)
		if err := h.pool.Deallocate(id); err != nil {
			return err
		}
		id = next
	}
	return nil
}

// insertPhysical places an already-encoded record on some page with room.
func (h *Heap) insertPhysical(rec []byte) (RID, error) {
	for id, free := range h.freeSpace {
		if free >= len(rec)+minUsableFree || free >= len(rec)+slotEntryLen {
			p, err := h.pool.Fetch(id)
			if err != nil {
				return NilRID, err
			}
			slot, err := p.InsertRecord(rec)
			if err == nil {
				p.MarkDirty(h.txnActive)
				h.freeSpace[id] = p.FreeSpace()
				h.touch(id)
				h.pool.Unpin(p)
				return RID{Page: id, Slot: slot}, nil
			}
			// Stale free-space entry; refresh and keep looking.
			h.freeSpace[id] = p.FreeSpace()
			h.pool.Unpin(p)
		}
	}
	p, err := h.pool.Allocate()
	if err != nil {
		return NilRID, err
	}
	p.InitHeap()
	slot, err := p.InsertRecord(rec)
	if err != nil {
		h.pool.Unpin(p)
		return NilRID, err
	}
	p.MarkDirty(h.txnActive)
	h.freeSpace[p.ID()] = p.FreeSpace()
	h.touch(p.ID())
	rid := RID{Page: p.ID(), Slot: slot}
	h.pool.Unpin(p)
	return rid, nil
}

// Fetch returns the record payload stored at rid (following forwarding and
// reassembling overflow chains). The returned slice is always a copy.
// Readers that account for the pages they touch use View.
func (h *Heap) Fetch(rid RID) ([]byte, error) {
	h.met.fetches.Inc()
	return h.fetchCopy(rid)
}

// fetchCopy is resolve plus a private copy of the payload.
func (h *Heap) fetchCopy(rid RID) ([]byte, error) {
	data, pinned, err := h.resolve(rid, nil)
	if err != nil {
		return nil, err
	}
	if pinned != nil {
		data = append([]byte(nil), data...)
		h.pool.Unpin(pinned)
	}
	return data, nil
}

// View hands fn the payload stored at rid without copying it: a plain
// record is a slice of its buffer-pool frame, which stays pinned until fn
// returns (an overflow record is assembled first, as Fetch does). fn must
// not keep data, or anything aliasing it, past its return, and must not
// write to it. Frame bytes cannot change under the pin because readers hold
// the engine lock shared and writers hold it exclusively. Every page the
// fetch touches (home, forwarding hops, overflow-chain pages) is charged to
// acc. The count is logical — pages the buffer pool had cached still count —
// so it is a deterministic function of the record layout, which is what
// makes serial and parallel query accounting comparable.
func (h *Heap) View(rid RID, acc *obs.Resources, fn func(data []byte) error) error {
	h.met.fetches.Inc()
	data, pinned, err := h.resolve(rid, acc)
	if err != nil {
		return err
	}
	if pinned != nil {
		defer h.pool.Unpin(pinned)
	}
	return fn(data)
}

// resolve is the one record resolver: it follows forwarding stubs, strips
// the moved-record prefix and reassembles overflow chains, charging every
// page touched to acc (nil = uncharged). For a plain record the payload
// aliases the returned page, which is still pinned — the caller unpins it
// when done with the bytes. An overflow payload is a private buffer and the
// returned page is nil.
func (h *Heap) resolve(rid RID, acc *obs.Resources) ([]byte, *Page, error) {
	for {
		p, err := h.pool.Fetch(rid.Page)
		if err != nil {
			return nil, nil, err
		}
		acc.Add(obs.Resources{Pages: 1})
		raw, err := p.ReadRecord(rid.Slot)
		if err != nil {
			h.pool.Unpin(p)
			return nil, nil, err
		}
		if len(raw) == 0 {
			h.pool.Unpin(p)
			return nil, nil, fmt.Errorf("storage: empty physical record at %v", rid)
		}
		flag := raw[0]
		if flag&flagForward != 0 {
			rid = UnpackRID(binary.LittleEndian.Uint64(raw[1:]))
			h.pool.Unpin(p)
			h.met.forwardHops.Inc()
			continue
		}
		body := raw[1:]
		if flag&flagMoved != 0 {
			body = body[8:] // skip home RID
		}
		if flag&flagOverflow != 0 {
			total := binary.LittleEndian.Uint32(body)
			first := PageID(binary.LittleEndian.Uint32(body[4:]))
			h.pool.Unpin(p)
			data, err := h.readOverflowChain(first, total, acc)
			return data, nil, err
		}
		return body, p, nil
	}
}

// Update replaces the payload of the record whose home is rid.
func (h *Heap) Update(rid RID, data []byte) error {
	var prior []byte
	if h.undo != nil {
		var err error
		prior, err = h.Fetch(rid)
		if err != nil {
			return err
		}
	}
	h.touched = h.touched[:0]
	if err := h.updatePhysical(rid, data); err != nil {
		return err
	}
	if h.undo != nil {
		h.undo.RecordUpdate(rid, prior)
	}
	if h.log != nil {
		lsn := h.log.LogHeapUpdate(rid, data)
		h.stampTouched(rid.Page, lsn)
	}
	return nil
}

func (h *Heap) updatePhysical(home RID, data []byte) error {
	p, err := h.pool.Fetch(home.Page)
	if err != nil {
		return err
	}
	raw, err := p.ReadRecord(home.Slot)
	if err != nil {
		h.pool.Unpin(p)
		return err
	}
	flag := raw[0]
	if flag&flagForward != 0 {
		// The live record is elsewhere; operate there.
		target := UnpackRID(binary.LittleEndian.Uint64(raw[1:]))
		h.pool.Unpin(p)
		return h.updateMoved(home, target, data)
	}
	// Free a superseded overflow chain before overwriting the head.
	if flag&flagOverflow != 0 {
		body := raw[1:]
		if flag&flagMoved != 0 {
			body = body[8:]
		}
		first := PageID(binary.LittleEndian.Uint32(body[4:]))
		h.pool.Unpin(p)
		if err := h.freeOverflowChain(first); err != nil {
			return err
		}
		p, err = h.pool.Fetch(home.Page)
		if err != nil {
			return err
		}
	}
	rec := h.encodePlainOrOverflow(data, NilRID)
	err = p.UpdateRecord(home.Slot, rec)
	if err == nil {
		p.MarkDirty(h.txnActive)
		h.freeSpace[home.Page] = p.FreeSpace()
		h.touch(home.Page)
		h.pool.Unpin(p)
		return nil
	}
	if err != errPageFull {
		h.pool.Unpin(p)
		return err
	}
	h.pool.Unpin(p)
	// Move: place the record elsewhere, leave a forwarding stub at home.
	movedRec := h.encodePlainOrOverflow(data, home)
	newRID, err := h.insertPhysical(movedRec)
	if err != nil {
		return err
	}
	stub := make([]byte, 9)
	stub[0] = flagForward
	binary.LittleEndian.PutUint64(stub[1:], newRID.Pack())
	p, err = h.pool.Fetch(home.Page)
	if err != nil {
		return err
	}
	if err := p.UpdateRecord(home.Slot, stub); err != nil {
		h.pool.Unpin(p)
		return fmt.Errorf("storage: installing forward stub at %v: %w", home, err)
	}
	p.MarkDirty(h.txnActive)
	h.freeSpace[home.Page] = p.FreeSpace()
	h.touch(home.Page)
	h.pool.Unpin(p)
	return nil
}

// updateMoved updates a record living at target whose home stub is at home.
func (h *Heap) updateMoved(home, target RID, data []byte) error {
	p, err := h.pool.Fetch(target.Page)
	if err != nil {
		return err
	}
	raw, err := p.ReadRecord(target.Slot)
	if err != nil {
		h.pool.Unpin(p)
		return err
	}
	if raw[0]&flagOverflow != 0 {
		body := raw[1:]
		if raw[0]&flagMoved != 0 {
			body = body[8:]
		}
		first := PageID(binary.LittleEndian.Uint32(body[4:]))
		h.pool.Unpin(p)
		if err := h.freeOverflowChain(first); err != nil {
			return err
		}
		p, err = h.pool.Fetch(target.Page)
		if err != nil {
			return err
		}
	}
	rec := h.encodePlainOrOverflow(data, home)
	err = p.UpdateRecord(target.Slot, rec)
	if err == nil {
		p.MarkDirty(h.txnActive)
		h.freeSpace[target.Page] = p.FreeSpace()
		h.touch(target.Page)
		h.pool.Unpin(p)
		return nil
	}
	if err != errPageFull {
		h.pool.Unpin(p)
		return err
	}
	// Move again: delete the old moved copy, insert a fresh one, and
	// repoint the home stub.
	if derr := p.DeleteRecord(target.Slot); derr != nil {
		h.pool.Unpin(p)
		return derr
	}
	p.MarkDirty(h.txnActive)
	h.freeSpace[target.Page] = p.FreeSpace()
	h.touch(target.Page)
	h.pool.Unpin(p)
	newRID, err := h.insertPhysical(rec)
	if err != nil {
		return err
	}
	stub := make([]byte, 9)
	stub[0] = flagForward
	binary.LittleEndian.PutUint64(stub[1:], newRID.Pack())
	hp, err := h.pool.Fetch(home.Page)
	if err != nil {
		return err
	}
	if err := hp.UpdateRecord(home.Slot, stub); err != nil {
		h.pool.Unpin(hp)
		return err
	}
	hp.MarkDirty(h.txnActive)
	h.freeSpace[home.Page] = hp.FreeSpace()
	h.touch(home.Page)
	h.pool.Unpin(hp)
	return nil
}

// Delete removes the record whose home is rid, including any moved copy
// and overflow chain.
func (h *Heap) Delete(rid RID) error {
	var prior []byte
	if h.undo != nil {
		var err error
		prior, err = h.Fetch(rid)
		if err != nil {
			return err
		}
	}
	h.touched = h.touched[:0]
	if err := h.deletePhysical(rid); err != nil {
		return err
	}
	if h.undo != nil {
		h.undo.RecordDelete(rid, prior)
	}
	if h.log != nil {
		lsn := h.log.LogHeapDelete(rid)
		h.stampTouched(rid.Page, lsn)
	}
	return nil
}

func (h *Heap) deletePhysical(rid RID) error {
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	raw, err := p.ReadRecord(rid.Slot)
	if err != nil {
		h.pool.Unpin(p)
		return err
	}
	flag := raw[0]
	var target RID
	var chain PageID = InvalidPage
	if flag&flagForward != 0 {
		target = UnpackRID(binary.LittleEndian.Uint64(raw[1:]))
	} else if flag&flagOverflow != 0 {
		body := raw[1:]
		if flag&flagMoved != 0 {
			body = body[8:]
		}
		chain = PageID(binary.LittleEndian.Uint32(body[4:]))
	}
	if err := p.DeleteRecord(rid.Slot); err != nil {
		h.pool.Unpin(p)
		return err
	}
	p.MarkDirty(h.txnActive)
	h.freeSpace[rid.Page] = p.FreeSpace()
	h.touch(rid.Page)
	h.pool.Unpin(p)
	if target.IsValid() {
		return h.deletePhysical(target)
	}
	if chain != InvalidPage {
		return h.freeOverflowChain(chain)
	}
	return nil
}

// stampLSN stamps a page with a mutation LSN (WAL rule bookkeeping).
func (h *Heap) stampLSN(id PageID, lsn uint64) {
	p, err := h.pool.Fetch(id)
	if err != nil {
		return
	}
	p.SetLSN(lsn)
	p.MarkDirty(h.txnActive)
	h.pool.Unpin(p)
}

// stampTouched stamps lsn on the home page and on every other page the
// just-logged mutation physically modified (recorded in h.touched). A page
// may only be flushed once the log covering its changes is durable; the
// pool enforces that via the page LSN, so each modified page must carry
// the mutation's LSN — not just the home page.
func (h *Heap) stampTouched(home PageID, lsn uint64) {
	h.stampLSN(home, lsn)
	for i, id := range h.touched {
		if id == home {
			continue
		}
		dup := false
		for _, prev := range h.touched[:i] {
			if prev == id {
				dup = true
				break
			}
		}
		if !dup {
			h.stampLSN(id, lsn)
		}
	}
}

// touch records a page as physically modified by the current mutation.
func (h *Heap) touch(id PageID) { h.touched = append(h.touched, id) }

// --- Recovery entry points (unlogged, self-repairing) ---------------------
//
// A logical heap mutation can touch several pages: the home page plus a
// move target, or overflow pages. A crash may flush any subset of them, so
// no single page LSN can witness whether the op's effects are on disk —
// the home page can carry a forwarding stub whose target copy never
// landed. Replay therefore does not skip records based on LSN guards.
// Each redo entry point inspects the logical state reachable from the home
// RID and re-establishes the logged post-state, repairing dangling stubs
// and divergent float placements as it goes. Replay runs strictly in log
// order, so overwriting a page that already holds a later state is safe:
// the later log records restore it, and after a full replay every record
// holds exactly its last logged state.
//
// Two rules keep repair from turning stale bytes into corruption:
//
//   - Overflow chains referenced by possibly-stale heads are never freed:
//     a stale head can alias pages that were reused after the checkpoint.
//     Orphaned chains are leaked — lost space, never lost data.
//   - A float copy is deleted or relocated only when its embedded home RID
//     proves ownership; anything else at the expected location is left
//     alone.

// ownerOf resolves which home RID the physical record raw (stored at
// position at) belongs to: a moved copy names its home explicitly; any
// other record is owned by the slot it occupies. ok is false when the
// record is too short to decode.
func ownerOf(raw []byte, at RID) (owner RID, ok bool) {
	if len(raw) == 0 {
		return NilRID, false
	}
	if raw[0]&flagMoved != 0 {
		if len(raw) < 9 {
			return NilRID, false
		}
		return UnpackRID(binary.LittleEndian.Uint64(raw[1:])), true
	}
	return at, true
}

// RedoInsert re-establishes a logged insert: afterwards rid's home slot
// holds a record owned by rid — this op's payload, or a later state that
// was already on disk and that later log records will reconcile.
func (h *Heap) RedoInsert(rid RID, data []byte, lsn uint64) error {
	p, err := h.fetchOrFormat(rid.Page)
	if err != nil {
		return err
	}
	if raw, rerr := p.ReadRecord(rid.Slot); rerr == nil {
		owner, ok := ownerOf(raw, rid)
		if ok && owner == rid {
			// The slot already belongs to this record: the insert (or a
			// later op on the same record) reached the device pre-crash.
			if p.LSN() < lsn {
				p.SetLSN(lsn)
			}
			p.MarkDirty(false)
			h.pool.Unpin(p)
			return nil
		}
		// Replay floated another record's copy into the slot this insert
		// needs. Relocate that copy (repointing its home stub), then
		// reclaim the slot.
		alien := append([]byte(nil), raw...)
		h.pool.Unpin(p)
		if ok {
			if err := h.relocateMovedCopy(owner, rid, alien); err != nil {
				return err
			}
		}
		p, err = h.pool.Fetch(rid.Page)
		if err != nil {
			return err
		}
		if err := p.DeleteRecord(rid.Slot); err != nil {
			h.pool.Unpin(p)
			return err
		}
	}
	rec := h.encodePlainOrOverflow(data, NilRID)
	if err := p.InsertRecordAt(rid.Slot, rec); err != nil {
		// The crashed layout left no room at the exact slot; float the
		// payload and keep only a 9-byte stub at home.
		h.pool.Unpin(p)
		return h.redoFloat(rid, data, lsn, true)
	}
	if p.LSN() < lsn {
		p.SetLSN(lsn)
	}
	p.MarkDirty(false)
	h.freeSpace[rid.Page] = p.FreeSpace()
	h.pool.Unpin(p)
	return nil
}

// RedoUpdate re-establishes a logged update: afterwards rid resolves to
// exactly data.
func (h *Heap) RedoUpdate(rid RID, data []byte, lsn uint64) error {
	p, err := h.fetchOrFormat(rid.Page)
	if err != nil {
		return err
	}
	raw, rerr := p.ReadRecord(rid.Slot)
	if rerr != nil {
		// Home slot absent: the insert's page version never reached the
		// device (e.g. a quarantined torn page). Recreate the record.
		h.pool.Unpin(p)
		return h.RedoInsert(rid, data, lsn)
	}
	if owner, ok := ownerOf(raw, rid); ok && owner != rid {
		// The slot holds another record's float copy, so the disk already
		// reflects a state past this record's deletion and slot reuse.
		// This op's effect is unobservable after full replay; leave the
		// later state alone.
		h.pool.Unpin(p)
		return nil
	}
	if raw[0]&flagForward != 0 && len(raw) >= 9 {
		target := UnpackRID(binary.LittleEndian.Uint64(raw[1:]))
		h.pool.Unpin(p)
		return h.redoUpdateMoved(rid, target, data, lsn)
	}
	// Plain record or overflow head at home. A superseded chain is leaked,
	// not freed: its head may be stale and alias reused pages.
	rec := h.encodePlainOrOverflow(data, NilRID)
	uerr := p.UpdateRecord(rid.Slot, rec)
	if uerr == errPageFull {
		h.pool.Unpin(p)
		return h.redoFloat(rid, data, lsn, false)
	}
	if uerr != nil {
		h.pool.Unpin(p)
		return uerr
	}
	if p.LSN() < lsn {
		p.SetLSN(lsn)
	}
	p.MarkDirty(false)
	h.freeSpace[rid.Page] = p.FreeSpace()
	h.pool.Unpin(p)
	return nil
}

// redoUpdateMoved rewrites the float copy of home in place when the stub
// target verifiably holds it; otherwise the stub dangles (the copy never
// reached the device, or its page was reused) and a fresh copy is floated.
func (h *Heap) redoUpdateMoved(home, target RID, data []byte, lsn uint64) error {
	if target.IsValid() && target.Page < h.pool.dev.NumPages() {
		tp, err := h.pool.Fetch(target.Page)
		if err != nil {
			return err
		}
		if tp.Type() == PageHeap {
			raw, rerr := tp.ReadRecord(target.Slot)
			if rerr == nil && len(raw) >= 9 && raw[0]&flagMoved != 0 &&
				UnpackRID(binary.LittleEndian.Uint64(raw[1:])) == home {
				rec := h.encodePlainOrOverflow(data, home)
				uerr := tp.UpdateRecord(target.Slot, rec)
				if uerr == nil {
					if tp.LSN() < lsn {
						tp.SetLSN(lsn)
					}
					tp.MarkDirty(false)
					h.freeSpace[target.Page] = tp.FreeSpace()
					h.pool.Unpin(tp)
					h.stampRedoLSN(home.Page, lsn)
					return nil
				}
				if uerr != errPageFull {
					h.pool.Unpin(tp)
					return uerr
				}
				// The copy no longer fits where it sits: drop it here and
				// re-float below.
				if derr := tp.DeleteRecord(target.Slot); derr != nil {
					h.pool.Unpin(tp)
					return derr
				}
				tp.MarkDirty(false)
				h.freeSpace[target.Page] = tp.FreeSpace()
			}
		}
		h.pool.Unpin(tp)
	}
	return h.redoFloat(home, data, lsn, false)
}

// RedoDelete re-establishes a logged delete: afterwards rid's home slot
// holds nothing owned by rid.
func (h *Heap) RedoDelete(rid RID, lsn uint64) error {
	p, err := h.fetchOrFormat(rid.Page)
	if err != nil {
		return err
	}
	raw, rerr := p.ReadRecord(rid.Slot)
	if rerr != nil {
		// Already gone.
		if p.LSN() < lsn {
			p.SetLSN(lsn)
		}
		p.MarkDirty(false)
		h.pool.Unpin(p)
		return nil
	}
	if owner, ok := ownerOf(raw, rid); ok && owner != rid {
		// The slot was reused by another record's float copy after this
		// delete took effect on disk; leave the later state alone.
		h.pool.Unpin(p)
		return nil
	}
	var target RID
	if raw[0]&flagForward != 0 && len(raw) >= 9 {
		target = UnpackRID(binary.LittleEndian.Uint64(raw[1:]))
	}
	if err := p.DeleteRecord(rid.Slot); err != nil {
		h.pool.Unpin(p)
		return err
	}
	if p.LSN() < lsn {
		p.SetLSN(lsn)
	}
	p.MarkDirty(false)
	h.freeSpace[rid.Page] = p.FreeSpace()
	h.pool.Unpin(p)
	if target.IsValid() && target.Page < h.pool.dev.NumPages() {
		tp, err := h.pool.Fetch(target.Page)
		if err != nil {
			return err
		}
		if tp.Type() == PageHeap {
			traw, terr := tp.ReadRecord(target.Slot)
			if terr == nil && len(traw) >= 9 && traw[0]&flagMoved != 0 &&
				UnpackRID(binary.LittleEndian.Uint64(traw[1:])) == rid {
				if derr := tp.DeleteRecord(target.Slot); derr != nil {
					h.pool.Unpin(tp)
					return derr
				}
				if tp.LSN() < lsn {
					tp.SetLSN(lsn)
				}
				tp.MarkDirty(false)
				h.freeSpace[target.Page] = tp.FreeSpace()
			}
		}
		h.pool.Unpin(tp)
	}
	// Any overflow chain the record owned is leaked, not freed.
	return nil
}

// redoFloat places data as a float copy of home on any page with room and
// writes (newSlot) or overwrites the home slot with a forwarding stub.
func (h *Heap) redoFloat(home RID, data []byte, lsn uint64, newSlot bool) error {
	moved, err := h.insertPhysical(h.encodePlainOrOverflow(data, home))
	if err != nil {
		return err
	}
	stub := make([]byte, 9)
	stub[0] = flagForward
	binary.LittleEndian.PutUint64(stub[1:], moved.Pack())
	p, err := h.pool.Fetch(home.Page)
	if err != nil {
		return err
	}
	if newSlot {
		err = p.InsertRecordAt(home.Slot, stub)
	} else {
		err = p.UpdateRecord(home.Slot, stub)
	}
	if err != nil {
		h.pool.Unpin(p)
		return fmt.Errorf("storage: redo stub at %v: %w", home, err)
	}
	if p.LSN() < lsn {
		p.SetLSN(lsn)
	}
	p.MarkDirty(false)
	h.freeSpace[home.Page] = p.FreeSpace()
	h.pool.Unpin(p)
	h.stampRedoLSN(moved.Page, lsn)
	return nil
}

// relocateMovedCopy moves another record's float copy (payload rec,
// currently occupying slot from) out of a slot that a logged insert needs,
// repointing the owner's home stub at the new location. A copy whose home
// no longer points at it is an orphan and is abandoned.
func (h *Heap) relocateMovedCopy(owner, from RID, rec []byte) error {
	if !owner.IsValid() || owner.Page >= h.pool.dev.NumPages() {
		return nil
	}
	hp, err := h.pool.Fetch(owner.Page)
	if err != nil {
		return err
	}
	raw, rerr := hp.ReadRecord(owner.Slot)
	points := rerr == nil && len(raw) >= 9 && raw[0]&flagForward != 0 &&
		UnpackRID(binary.LittleEndian.Uint64(raw[1:])) == from
	h.pool.Unpin(hp)
	if !points {
		return nil
	}
	moved, err := h.insertPhysical(rec)
	if err != nil {
		return err
	}
	stub := make([]byte, 9)
	stub[0] = flagForward
	binary.LittleEndian.PutUint64(stub[1:], moved.Pack())
	hp, err = h.pool.Fetch(owner.Page)
	if err != nil {
		return err
	}
	if err := hp.UpdateRecord(owner.Slot, stub); err != nil {
		h.pool.Unpin(hp)
		return err
	}
	hp.MarkDirty(false)
	h.freeSpace[owner.Page] = hp.FreeSpace()
	h.pool.Unpin(hp)
	return nil
}

func (h *Heap) stampRedoLSN(id PageID, lsn uint64) {
	p, err := h.pool.Fetch(id)
	if err != nil {
		return
	}
	if p.LSN() < lsn {
		p.SetLSN(lsn)
	}
	p.MarkDirty(false)
	h.pool.Unpin(p)
}

// fetchOrFormat fetches a page, formatting it as a heap page if it is
// fresh (needed when redo targets a page allocated after the checkpoint).
func (h *Heap) fetchOrFormat(id PageID) (*Page, error) {
	for h.pool.dev.NumPages() <= id {
		p, err := h.pool.Allocate()
		if err != nil {
			return nil, err
		}
		p.InitHeap()
		p.MarkDirty(false)
		h.freeSpace[p.ID()] = p.FreeSpace()
		h.pool.Unpin(p)
	}
	p, err := h.pool.Fetch(id)
	if err != nil {
		return nil, err
	}
	if p.Type() != PageHeap {
		p.InitHeap()
		p.MarkDirty(false)
		h.freeSpace[id] = p.FreeSpace()
	}
	return p, nil
}

// --- Unlogged primitives for transaction undo ----------------------------

// UndoInsert removes a record inserted by an aborting transaction.
func (h *Heap) UndoInsert(rid RID) error { return h.deletePhysical(rid) }

// UndoUpdate restores the previous payload of a record.
func (h *Heap) UndoUpdate(rid RID, prior []byte) error { return h.updatePhysical(rid, prior) }

// UndoDelete restores a record deleted by an aborting transaction.
func (h *Heap) UndoDelete(rid RID, prior []byte) error {
	rec := h.encodePlainOrOverflow(prior, NilRID)
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(p)
	if err := p.InsertRecordAt(rid.Slot, rec); err != nil {
		return err
	}
	p.MarkDirty(h.txnActive)
	h.freeSpace[rid.Page] = p.FreeSpace()
	return nil
}

// Scan calls fn for every live record (by home RID, skipping forwarding
// stubs and moved copies' physical locations — each record is visited once
// under its home RID). Scanning stops early if fn returns false or an
// error.
func (h *Heap) Scan(fn func(rid RID, data []byte) (bool, error)) error {
	n := h.pool.dev.NumPages()
	for id := PageID(1); id < n; id++ {
		p, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		if p.Type() != PageHeap {
			h.pool.Unpin(p)
			continue
		}
		slots := p.SlotCount()
		type item struct {
			rid  RID
			data []byte
		}
		var items []item
		for s := uint16(0); s < slots; s++ {
			if !p.SlotUsed(s) {
				continue
			}
			raw, err := p.ReadRecord(s)
			if err != nil {
				h.pool.Unpin(p)
				return err
			}
			flag := raw[0]
			if flag&flagForward != 0 || flag&flagMoved != 0 {
				continue // visited via home RID
			}
			rid := RID{Page: id, Slot: s}
			var data []byte
			if flag&flagOverflow != 0 {
				total := binary.LittleEndian.Uint32(raw[1:])
				first := PageID(binary.LittleEndian.Uint32(raw[5:]))
				data, err = h.readOverflowChain(first, total, nil)
				if err != nil {
					h.pool.Unpin(p)
					return err
				}
			} else {
				data = make([]byte, len(raw)-1)
				copy(data, raw[1:])
			}
			items = append(items, item{rid: rid, data: data})
		}
		h.pool.Unpin(p)
		for _, it := range items {
			cont, err := fn(it.rid, it.data)
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		}
	}
	// Second pass: records that moved keep their home (stub) RID but their
	// payload lives elsewhere. Visit them via their stubs.
	for id := PageID(1); id < n; id++ {
		p, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		if p.Type() != PageHeap {
			h.pool.Unpin(p)
			continue
		}
		var stubs []RID
		for s := uint16(0); s < p.SlotCount(); s++ {
			if !p.SlotUsed(s) {
				continue
			}
			raw, err := p.ReadRecord(s)
			if err != nil {
				h.pool.Unpin(p)
				return err
			}
			if raw[0]&flagForward != 0 {
				stubs = append(stubs, RID{Page: id, Slot: s})
			}
		}
		h.pool.Unpin(p)
		for _, rid := range stubs {
			data, err := h.fetchCopy(rid)
			if err != nil {
				return err
			}
			cont, err := fn(rid, data)
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		}
	}
	return nil
}
