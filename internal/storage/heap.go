package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

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

// RedoLogger receives every heap change before it is applied and returns
// the LSN it assigned; the heap stamps that LSN on every heap page the
// change writes, which is what lets redo tell whether a page already holds
// it. A nil logger disables logging (ephemeral databases).
type RedoLogger interface {
	LogHeap(c *Change) uint64
}

// Heap is the record manager: variable-length records addressed by stable
// RIDs, with forwarding for grown records and overflow chains for records
// larger than a page. A database has exactly one heap; the page type byte
// identifies its pages.
//
// Every mutation is one Change that names each slot it writes and each
// overflow page it fills. The forward path chooses those places, logs the
// change and applies it; redo applies the same change through the same
// code, so replay reproduces the pages byte for byte and never chooses a
// place itself.
type Heap struct {
	pool *BufferPool
	log  RedoLogger

	// txnActive marks mutations as belonging to an uncommitted
	// transaction: pages they dirty become unevictable (no-steal) until
	// the transaction layer calls EndTxn on the pool.
	txnActive bool
	// before holds, while a transaction is active, the image of each heap
	// page from before the transaction first changed it (nil for a page
	// the transaction allocated); touched lists those pages in order.
	// Rollback restores them. spare recycles image buffers across
	// transactions, so a short transaction allocates none.
	before  map[PageID][]byte
	touched []PageID
	spare   [][]byte

	free freeSpace
	met  heapMetrics
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

// NewHeap creates a heap over the pool. Call Rebuild before use on an
// existing database.
func NewHeap(pool *BufferPool, log RedoLogger) *Heap {
	return &Heap{pool: pool, log: log, before: map[PageID][]byte{}}
}

// SetLogger replaces the redo logger (nil disables logging).
func (h *Heap) SetLogger(log RedoLogger) { h.log = log }

// maxSpareImages bounds the before-image buffers kept for reuse.
const maxSpareImages = 64

// SetTxnActive toggles transaction mode: while active, dirtied pages are
// pinned against eviction until the transaction ends, and the before-image
// of every page changed is kept for Rollback. Either way the images of the
// transaction that ended are dropped.
func (h *Heap) SetTxnActive(active bool) {
	h.txnActive = active
	for _, id := range h.touched {
		if img := h.before[id]; img != nil && len(h.spare) < maxSpareImages {
			h.spare = append(h.spare, img)
		}
	}
	clear(h.before)
	h.touched = h.touched[:0]
}

// Rebuild scans the device and reconstructs the free-space index.
func (h *Heap) Rebuild(dev Device) error {
	h.free = freeSpace{}
	n := dev.NumPages()
	for id := PageID(1); id < n; id++ {
		p, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		if p.Type() == PageHeap {
			h.free.set(id, p.FreeSpace())
		}
		h.pool.Unpin(p)
	}
	return nil
}

// --- Changes -----------------------------------------------------------------

// ChangeKind says what a Change did to its home record.
type ChangeKind uint8

// The three heap mutations.
const (
	ChangeInsert ChangeKind = iota + 1
	ChangeUpdate
	ChangeDelete
)

// Change is one heap mutation, page-exact: the home record it acts on,
// where the payload landed, the slot it left and the overflow pages it
// filled. The slot images follow from these fields, so applying a Change
// never decides anything.
type Change struct {
	Kind ChangeKind
	Home RID // the record's stable RID
	// Body is the slot that holds the payload afterwards: Home, or a float
	// copy elsewhere (Home then holds a stub pointing at it). NilRID for a
	// delete.
	Body RID
	// Drop is the slot the payload leaves — Home or a float copy — when it
	// moves or is deleted; NilRID when it stays where it was. A float copy
	// named here is emptied, and a move rewrites Home's stub.
	Drop RID
	// Chain lists the overflow pages holding Data, in chain order; empty
	// when the payload is stored inline.
	Chain []PageID
	Data  []byte // the payload (nil for a delete)
}

// Encode is c's log form, less its kind and home (the log record carries
// those): the placement — Body, Drop and Chain — then the payload.
// DecodeChange reads it back.
func (c *Change) Encode() []byte {
	b := make([]byte, 0, 16+len(c.Data))
	b = binary.AppendUvarint(b, c.Body.Pack())
	b = binary.AppendUvarint(b, c.Drop.Pack())
	b = binary.AppendUvarint(b, uint64(len(c.Chain)))
	for _, id := range c.Chain {
		b = binary.AppendUvarint(b, uint64(id))
	}
	return append(b, c.Data...)
}

// DecodeChange rebuilds the Change a log record describes from its kind,
// home RID and Encode bytes. The payload aliases b.
func DecodeChange(kind ChangeKind, home RID, b []byte) (*Change, error) {
	if kind < ChangeInsert || kind > ChangeDelete {
		return nil, fmt.Errorf("storage: unknown change kind %d", kind)
	}
	c := &Change{Kind: kind, Home: home}
	var vals [3]uint64
	for i := range vals {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("storage: change at %v: truncated placement", home)
		}
		vals[i], b = v, b[n:]
	}
	c.Body, c.Drop = UnpackRID(vals[0]), UnpackRID(vals[1])
	if vals[2] > uint64(len(b)) {
		return nil, fmt.Errorf("storage: change at %v: chain of %d pages exceeds the record", home, vals[2])
	}
	for i := uint64(0); i < vals[2]; i++ {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("storage: change at %v: truncated chain", home)
		}
		c.Chain, b = append(c.Chain, PageID(v)), b[n:]
	}
	c.Data = b
	switch {
	case kind == ChangeDelete:
		c.Data = nil
	case !c.Body.IsValid():
		return nil, fmt.Errorf("storage: change at %v names no body slot", home)
	case len(c.Chain) > 0 && len(c.Chain) != (len(b)+overflowPayload-1)/overflowPayload:
		return nil, fmt.Errorf("storage: change at %v: %d overflow pages for a %d-byte payload", home, len(c.Chain), len(b))
	}
	return c, nil
}

// slotWrite is one slot image a Change installs (rec nil empties the slot).
type slotWrite struct {
	at  RID
	rec []byte
}

// slotWrites lists the slot images c installs, grouped by page in a fixed
// order so the forward path and redo apply them identically.
func (c *Change) slotWrites() []slotWrite {
	ws := make([]slotWrite, 0, 3)
	if c.Drop.IsValid() && c.Drop != c.Home {
		ws = append(ws, slotWrite{at: c.Drop})
	}
	switch {
	case c.Kind == ChangeDelete:
		ws = append(ws, slotWrite{at: c.Home})
	case c.Body == c.Home:
		ws = append(ws, slotWrite{at: c.Home, rec: c.bodyRecord()})
	default:
		ws = append(ws, slotWrite{at: c.Body, rec: c.bodyRecord()})
		if c.Drop.IsValid() {
			// The payload moved: only then does home's stub change, so an
			// update of a float copy in place writes that one page.
			stub := binary.LittleEndian.AppendUint64([]byte{flagForward}, c.Body.Pack())
			ws = append(ws, slotWrite{at: c.Home, rec: stub})
		}
	}
	slices.SortStableFunc(ws, func(a, b slotWrite) int { return cmp.Compare(a.at.Page, b.at.Page) })
	return ws
}

// bodyRecord is the physical record at c.Body: the flag byte, the home RID
// when the record has moved, then the payload or its overflow head.
func (c *Change) bodyRecord() []byte {
	moved := c.Body != c.Home
	flag := flagPlain
	if len(c.Chain) > 0 {
		flag = flagOverflow
	}
	if moved {
		flag |= flagMoved
	}
	n := len(c.Data)
	if len(c.Chain) > 0 {
		n = 8
	}
	rec := append(make([]byte, 0, 9+n), flag)
	if moved {
		rec = binary.LittleEndian.AppendUint64(rec, c.Home.Pack())
	}
	if len(c.Chain) == 0 {
		return append(rec, c.Data...)
	}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(c.Data)))
	return binary.LittleEndian.AppendUint32(rec, uint32(c.Chain[0]))
}

// recordHeader is the flag byte plus, for a moved record, its home RID.
func recordHeader(moved bool) int {
	if moved {
		return 9
	}
	return 1
}

// spills reports whether an n-byte payload needs an overflow chain.
func spills(moved bool, n int) bool { return recordHeader(moved)+n > MaxHeapRecord }

// recordLen is the physical length of a record holding an n-byte payload.
func recordLen(moved bool, n int) int {
	if spills(moved, n) {
		return recordHeader(moved) + 8
	}
	return recordHeader(moved) + n
}

// --- Forward path --------------------------------------------------------------

// Insert stores data, returning its home RID.
func (h *Heap) Insert(data []byte) (RID, error) {
	rid, err := h.place(recordLen(false, len(data)))
	if err != nil {
		return NilRID, err
	}
	if err := h.write(&Change{Kind: ChangeInsert, Home: rid, Body: rid, Data: data}); err != nil {
		return NilRID, err
	}
	return rid, nil
}

// Update replaces the payload of the record whose home is rid. The payload
// stays where it lives when it fits there; otherwise it moves to the lowest
// page with room, behind a stub at home.
func (h *Heap) Update(rid RID, data []byte) error {
	at, chain, err := h.locate(rid)
	if err != nil {
		return err
	}
	c := &Change{Kind: ChangeUpdate, Home: rid, Body: at, Data: data}
	p, err := h.pool.Fetch(at.Page)
	if err != nil {
		return err
	}
	fits := p.Fits(at.Slot, recordLen(at != rid, len(data)))
	h.pool.Unpin(p)
	if !fits {
		c.Drop = at
		if c.Body, err = h.place(recordLen(true, len(data))); err != nil {
			return err
		}
	}
	if err := h.write(c); err != nil {
		return err
	}
	return h.freeChain(chain)
}

// Delete removes the record whose home is rid, including any moved copy
// and overflow chain.
func (h *Heap) Delete(rid RID) error {
	at, chain, err := h.locate(rid)
	if err != nil {
		return err
	}
	c := &Change{Kind: ChangeDelete, Home: rid, Drop: at}
	if err := h.write(c); err != nil {
		return err
	}
	return h.freeChain(chain)
}

// locate returns the slot holding home's payload — home itself, or the
// float copy its stub points at — and the first page of the payload's
// overflow chain (InvalidPage when it is inline).
func (h *Heap) locate(home RID) (RID, PageID, error) {
	at := home
	for {
		p, err := h.pool.Fetch(at.Page)
		if err != nil {
			return NilRID, InvalidPage, err
		}
		raw, err := p.ReadRecord(at.Slot)
		if err == nil && len(raw) == 0 {
			err = fmt.Errorf("storage: empty physical record at %v", at)
		}
		if err != nil {
			h.pool.Unpin(p)
			return NilRID, InvalidPage, err
		}
		flag := raw[0]
		if flag&flagForward != 0 {
			at = UnpackRID(binary.LittleEndian.Uint64(raw[1:]))
			h.pool.Unpin(p)
			continue
		}
		chain := InvalidPage
		if flag&flagOverflow != 0 {
			body := raw[1:]
			if flag&flagMoved != 0 {
				body = body[8:]
			}
			chain = PageID(binary.LittleEndian.Uint32(body[4:]))
		}
		h.pool.Unpin(p)
		return at, chain, nil
	}
}

// place picks the slot for a new n-byte record: the first free slot of the
// lowest page with room, or slot 0 of a freshly allocated page.
func (h *Heap) place(n int) (RID, error) {
	if id, ok := h.free.firstFit(n + slotEntryLen); ok {
		p, err := h.pool.Fetch(id)
		if err != nil {
			return NilRID, err
		}
		slot := p.FreeSlot()
		h.pool.Unpin(p)
		return RID{Page: id, Slot: slot}, nil
	}
	p, err := h.pool.Allocate()
	if err != nil {
		return NilRID, err
	}
	id := p.ID()
	h.pool.Unpin(p)
	if h.txnActive {
		h.before[id] = nil
		h.touched = append(h.touched, id)
	}
	return RID{Page: id}, nil
}

// write allocates c's overflow chain when its payload needs one, logs c
// and applies it.
func (h *Heap) write(c *Change) error {
	if c.Kind != ChangeDelete && spills(c.Body != c.Home, len(c.Data)) {
		n := (len(c.Data) + overflowPayload - 1) / overflowPayload
		for i := 0; i < n; i++ {
			p, err := h.pool.Allocate()
			if err != nil {
				return err
			}
			c.Chain = append(c.Chain, p.ID())
			h.pool.Unpin(p)
		}
	}
	var lsn uint64
	if h.log != nil {
		lsn = h.log.LogHeap(c)
	}
	return h.apply(c, lsn, false)
}

// freeChain returns an overflow chain's pages to the free list.
func (h *Heap) freeChain(first PageID) error {
	for id := first; id != InvalidPage; {
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

// Rollback restores every heap page the active transaction changed to its
// image from before the transaction, LSN included, so an aborted
// transaction leaves no byte behind that the log does not describe. Pages
// the transaction allocated become empty heap pages.
func (h *Heap) Rollback() error {
	for _, id := range h.touched {
		p, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		if img := h.before[id]; img != nil {
			copy(p.data[:], img)
		} else {
			p.InitHeap()
		}
		p.MarkDirty(false)
		h.free.set(id, p.FreeSpace())
		h.pool.Unpin(p)
	}
	return nil
}

// --- Apply: the one path that writes heap pages ---------------------------------

// Redo applies a logged change during crash recovery or replication. Each
// page takes its part only if its LSN is older than the record's; redo
// never chooses a page or slot, and its only allocation is growing the
// device up to the pages the change names.
func (h *Heap) Redo(c *Change, lsn uint64) error { return h.apply(c, lsn, true) }

// apply writes c into the pages it names, stamping each heap page with
// lsn. Redo skips the pages that already hold the change; the forward path
// first saves, inside a transaction, the before-image of every heap page
// it changes.
func (h *Heap) apply(c *Change, lsn uint64, redo bool) error {
	for i, id := range c.Chain {
		p, err := h.fetch(id, redo)
		if err != nil {
			return err
		}
		if !redo || p.LSN() < lsn {
			next := InvalidPage
			if i+1 < len(c.Chain) {
				next = c.Chain[i+1]
			}
			chunk := c.Data[i*overflowPayload : min((i+1)*overflowPayload, len(c.Data))]
			clear(p.data[:])
			p.SetType(PageOverflow)
			binary.LittleEndian.PutUint32(p.data[12:], uint32(next))
			binary.LittleEndian.PutUint16(p.data[16:], uint16(len(chunk)))
			copy(p.data[overflowHeaderLen:], chunk)
			// Left at LSN 0 and evictable: a chain page is fresh, so
			// writing it early can clobber nothing committed, and redo
			// rewrites it unless the page has since become a newer heap page.
			p.MarkDirty(false)
		}
		h.pool.Unpin(p)
	}
	ws := c.slotWrites()
	for len(ws) > 0 {
		n := 1
		for n < len(ws) && ws[n].at.Page == ws[0].at.Page {
			n++
		}
		if err := h.applyPage(ws[:n], lsn, redo); err != nil {
			return fmt.Errorf("storage: change at %v: %w", c.Home, err)
		}
		ws = ws[n:]
	}
	return nil
}

// applyPage installs the slot images of one page.
func (h *Heap) applyPage(ws []slotWrite, lsn uint64, redo bool) error {
	p, err := h.fetch(ws[0].at.Page, redo)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(p)
	if redo && p.LSN() >= lsn {
		return nil
	}
	if _, ok := h.before[p.id]; h.txnActive && !ok {
		var img []byte
		if n := len(h.spare); n > 0 {
			img, h.spare = h.spare[n-1], h.spare[:n-1]
		} else {
			img = make([]byte, PageSize)
		}
		copy(img, p.data[:])
		h.before[p.id] = img
		h.touched = append(h.touched, p.id)
	}
	if p.Type() != PageHeap {
		p.InitHeap()
	}
	for _, w := range ws {
		if w.rec == nil {
			err = p.ClearSlot(w.at.Slot)
		} else {
			err = p.SetSlot(w.at.Slot, w.rec)
		}
		if err != nil {
			return err
		}
	}
	p.SetLSN(lsn)
	p.MarkDirty(h.txnActive)
	h.free.set(p.id, p.FreeSpace())
	return nil
}

// fetch pins page id; redo first grows the device to hold it.
func (h *Heap) fetch(id PageID, redo bool) (*Page, error) {
	if redo {
		if err := h.pool.Grow(id); err != nil {
			return nil, err
		}
	}
	return h.pool.Fetch(id)
}

// --- Reads ---------------------------------------------------------------------

const overflowHeaderLen = 18 // pageLSN(8) + type(1) + pad(3) + next(4) + used(2)
const overflowPayload = PageSize - overflowHeaderLen

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
