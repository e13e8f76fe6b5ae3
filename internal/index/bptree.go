// Package index implements a page-based B+-tree over the buffer pool,
// keyed by arbitrary byte strings (the order-preserving encodings produced
// by the value and temporal packages) with uint64 payloads (packed RIDs or
// version handles).
//
// Design notes:
//   - Duplicate keys are handled by the caller suffixing keys with a unique
//     discriminator (typically the atom surrogate or RID), which keeps the
//     tree strictly unique and makes deletions exact.
//   - Deletion is lazy: entries are removed but nodes are never merged, a
//     standard trade-off for write-mostly version stores. Space is
//     reclaimed when a node is compacted or the index is rebuilt.
//   - Index pages are not write-ahead logged. After an unclean shutdown the
//     engine rebuilds all indexes from the heap, which is always possible
//     because indexes are derived state.
package index

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"tcodm/internal/storage"
)

// MaxKeySize bounds key length so that several cells always fit per node.
const MaxKeySize = 1024

// Node layout (within an 8 KiB page, after the common page header):
//
//	offset 12: count    uint16 — number of cells
//	offset 14: freeEnd  uint16 — start of the cell area (cells grow down)
//	offset 16: next     uint32 — leaf: right sibling; inner: rightmost child
//	offset 20: offsets  [count]uint16 — cell offsets, sorted by key
//
// Leaf cell:  [keyLen uint16][key][value uint64]
// Inner cell: [keyLen uint16][key][child uint32] — child holds keys < key;
// the rightmost child (header "next") holds keys >= the last cell key.
const (
	ixCountOff   = 12
	ixFreeEndOff = 14
	ixNextOff    = 16
	ixOffsets    = 20
)

// BPTree is a B+-tree handle. The root page ID is the tree's identity;
// persist it (the engine stores it in the meta payload) and reopen with
// Open.
type BPTree struct {
	pool *storage.BufferPool
	root storage.PageID
	size int // live entries (maintained in memory; recomputed on open)
}

// New allocates an empty tree.
func New(pool *storage.BufferPool) (*BPTree, error) {
	t := &BPTree{pool: pool}
	p, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	initNode(p, true)
	p.MarkDirty()
	t.root = p.ID()
	pool.Unpin(p)
	return t, nil
}

// Open attaches to an existing tree rooted at root and counts its entries.
func Open(pool *storage.BufferPool, root storage.PageID) (*BPTree, error) {
	t := &BPTree{pool: pool, root: root}
	n := 0
	err := t.Scan(nil, func(k []byte, v uint64) (bool, error) {
		n++
		return true, nil
	})
	if err != nil {
		return nil, fmt.Errorf("index: open tree at page %d: %w", root, err)
	}
	t.size = n
	return t, nil
}

// Root returns the root page ID (persist it to reopen the tree).
func (t *BPTree) Root() storage.PageID { return t.root }

// Len returns the number of live entries.
func (t *BPTree) Len() int { return t.size }

func initNode(p *storage.Page, leaf bool) {
	d := p.Data()
	for i := range d {
		d[i] = 0
	}
	if leaf {
		p.SetType(storage.PageBTreeLeaf)
	} else {
		p.SetType(storage.PageBTreeInner)
	}
	binary.LittleEndian.PutUint16(d[ixCountOff:], 0)
	binary.LittleEndian.PutUint16(d[ixFreeEndOff:], storage.PageSize)
	binary.LittleEndian.PutUint32(d[ixNextOff:], uint32(storage.InvalidPage))
}

func nodeCount(p *storage.Page) int {
	return int(binary.LittleEndian.Uint16(p.Data()[ixCountOff:]))
}
func setNodeCount(p *storage.Page, n int) {
	binary.LittleEndian.PutUint16(p.Data()[ixCountOff:], uint16(n))
}
func nodeFreeEnd(p *storage.Page) int {
	return int(binary.LittleEndian.Uint16(p.Data()[ixFreeEndOff:]))
}
func setNodeFreeEnd(p *storage.Page, n int) {
	binary.LittleEndian.PutUint16(p.Data()[ixFreeEndOff:], uint16(n))
}
func nodeNext(p *storage.Page) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(p.Data()[ixNextOff:]))
}
func setNodeNext(p *storage.Page, id storage.PageID) {
	binary.LittleEndian.PutUint32(p.Data()[ixNextOff:], uint32(id))
}
func isLeaf(p *storage.Page) bool { return p.Type() == storage.PageBTreeLeaf }

func cellOffset(p *storage.Page, i int) int {
	return int(binary.LittleEndian.Uint16(p.Data()[ixOffsets+2*i:]))
}
func setCellOffset(p *storage.Page, i, off int) {
	binary.LittleEndian.PutUint16(p.Data()[ixOffsets+2*i:], uint16(off))
}

// cellKey returns the key bytes of cell i (aliasing the page).
func cellKey(p *storage.Page, i int) []byte {
	off := cellOffset(p, i)
	d := p.Data()
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	return d[off+2 : off+2+klen]
}

// leafValue returns the value of leaf cell i.
func leafValue(p *storage.Page, i int) uint64 {
	off := cellOffset(p, i)
	d := p.Data()
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	return binary.LittleEndian.Uint64(d[off+2+klen:])
}

func setLeafValue(p *storage.Page, i int, v uint64) {
	off := cellOffset(p, i)
	d := p.Data()
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	binary.LittleEndian.PutUint64(d[off+2+klen:], v)
}

// innerChild returns the child pointer of inner cell i.
func innerChild(p *storage.Page, i int) storage.PageID {
	off := cellOffset(p, i)
	d := p.Data()
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	return storage.PageID(binary.LittleEndian.Uint32(d[off+2+klen:]))
}

func setInnerChild(p *storage.Page, i int, id storage.PageID) {
	off := cellOffset(p, i)
	d := p.Data()
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	binary.LittleEndian.PutUint32(d[off+2+klen:], uint32(id))
}

// search finds the position of key within the node: for leaves, the index
// where key is or would be (found reports exact match); for inner nodes,
// the cell whose child should be descended (count = rightmost).
func search(p *storage.Page, key []byte) (pos int, found bool) {
	lo, hi := 0, nodeCount(p)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(cellKey(p, mid), key) {
		case 0:
			return mid, true
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// payloadSize is the per-cell payload size by node kind.
func payloadSize(leaf bool) int {
	if leaf {
		return 8
	}
	return 4
}

// cellSpace returns bytes a new cell for key would occupy (offset entry
// included).
func cellSpace(key []byte, leaf bool) int {
	return 2 + 2 + len(key) + payloadSize(leaf)
}

// nodeFree returns the free bytes between the offset array and cell area.
func nodeFree(p *storage.Page) int {
	return nodeFreeEnd(p) - (ixOffsets + 2*nodeCount(p))
}

// nodeLiveBytes returns bytes the node's live cells (plus offsets) occupy.
func nodeLiveBytes(p *storage.Page) int {
	leaf := isLeaf(p)
	total := 0
	for i := 0; i < nodeCount(p); i++ {
		total += cellSpace(cellKey(p, i), leaf)
	}
	return total
}

// insertCell places a cell at position pos, assuming space is available.
func insertCell(p *storage.Page, pos int, key []byte, payload uint64) {
	leaf := isLeaf(p)
	d := p.Data()
	n := nodeCount(p)
	cellLen := 2 + len(key) + payloadSize(leaf)
	newEnd := nodeFreeEnd(p) - cellLen
	binary.LittleEndian.PutUint16(d[newEnd:], uint16(len(key)))
	copy(d[newEnd+2:], key)
	if leaf {
		binary.LittleEndian.PutUint64(d[newEnd+2+len(key):], payload)
	} else {
		binary.LittleEndian.PutUint32(d[newEnd+2+len(key):], uint32(payload))
	}
	// Shift offsets to open a gap at pos.
	copy(d[ixOffsets+2*(pos+1):ixOffsets+2*(n+1)], d[ixOffsets+2*pos:ixOffsets+2*n])
	setCellOffset(p, pos, newEnd)
	setNodeCount(p, n+1)
	setNodeFreeEnd(p, newEnd)
}

// removeCell deletes the cell at pos (cell bytes become garbage until the
// node is compacted).
func removeCell(p *storage.Page, pos int) {
	d := p.Data()
	n := nodeCount(p)
	copy(d[ixOffsets+2*pos:ixOffsets+2*(n-1)], d[ixOffsets+2*(pos+1):ixOffsets+2*n])
	setNodeCount(p, n-1)
}

// compactNode rewrites the cell area dropping garbage.
func compactNode(p *storage.Page) {
	leaf := isLeaf(p)
	n := nodeCount(p)
	type cell struct {
		key     []byte
		payload uint64
	}
	cells := make([]cell, n)
	for i := 0; i < n; i++ {
		k := append([]byte(nil), cellKey(p, i)...)
		var v uint64
		if leaf {
			v = leafValue(p, i)
		} else {
			v = uint64(innerChild(p, i))
		}
		cells[i] = cell{k, v}
	}
	d := p.Data()
	end := storage.PageSize
	for i, c := range cells {
		cellLen := 2 + len(c.key) + payloadSize(leaf)
		end -= cellLen
		binary.LittleEndian.PutUint16(d[end:], uint16(len(c.key)))
		copy(d[end+2:], c.key)
		if leaf {
			binary.LittleEndian.PutUint64(d[end+2+len(c.key):], c.payload)
		} else {
			binary.LittleEndian.PutUint32(d[end+2+len(c.key):], uint32(c.payload))
		}
		setCellOffset(p, i, end)
	}
	setNodeFreeEnd(p, end)
}

// Get returns the value stored under key.
func (t *BPTree) Get(key []byte) (uint64, bool, error) {
	p, err := t.pool.Fetch(t.root)
	if err != nil {
		return 0, false, err
	}
	for !isLeaf(p) {
		pos, found := search(p, key)
		// Equal separator keys live in the right subtree.
		if found {
			pos++
		}
		var child storage.PageID
		if pos >= nodeCount(p) {
			child = nodeNext(p)
		} else {
			child = innerChild(p, pos)
		}
		t.pool.Unpin(p)
		p, err = t.pool.Fetch(child)
		if err != nil {
			return 0, false, err
		}
	}
	pos, found := search(p, key)
	if !found {
		t.pool.Unpin(p)
		return 0, false, nil
	}
	v := leafValue(p, pos)
	t.pool.Unpin(p)
	return v, true, nil
}

// Insert stores key -> value, replacing any existing value for key.
func (t *BPTree) Insert(key []byte, value uint64) error {
	if len(key) > MaxKeySize {
		return fmt.Errorf("index: key of %d bytes exceeds maximum %d", len(key), MaxKeySize)
	}
	promoted, newChild, replaced, err := t.insertInto(t.root, key, value)
	if err != nil {
		return err
	}
	if !replaced {
		t.size++
	}
	if newChild == storage.InvalidPage {
		return nil
	}
	// Root split: grow the tree by one level.
	p, err := t.pool.Allocate()
	if err != nil {
		return err
	}
	initNode(p, false)
	insertCell(p, 0, promoted, uint64(t.root))
	setNodeNext(p, newChild)
	p.MarkDirty()
	t.root = p.ID()
	t.pool.Unpin(p)
	return nil
}

// insertInto descends to the leaf, inserts, and propagates splits upward.
// When the node at id splits it returns the separator key and the new
// right sibling's page ID.
func (t *BPTree) insertInto(id storage.PageID, key []byte, value uint64) (promoted []byte, newChild storage.PageID, replaced bool, err error) {
	p, err := t.pool.Fetch(id)
	if err != nil {
		return nil, storage.InvalidPage, false, err
	}
	if isLeaf(p) {
		pos, found := search(p, key)
		if found {
			setLeafValue(p, pos, value)
			p.MarkDirty()
			t.pool.Unpin(p)
			return nil, storage.InvalidPage, true, nil
		}
		if err := t.makeRoom(p, key); err != nil {
			// Split required.
			sep, right, err := t.splitLeaf(p)
			if err != nil {
				t.pool.Unpin(p)
				return nil, storage.InvalidPage, false, err
			}
			if bytes.Compare(key, sep) >= 0 {
				rp, err := t.pool.Fetch(right)
				if err != nil {
					t.pool.Unpin(p)
					return nil, storage.InvalidPage, false, err
				}
				pos, _ := search(rp, key)
				insertCell(rp, pos, key, value)
				rp.MarkDirty()
				t.pool.Unpin(rp)
			} else {
				pos, _ := search(p, key)
				insertCell(p, pos, key, value)
			}
			p.MarkDirty()
			t.pool.Unpin(p)
			return sep, right, false, nil
		}
		pos, _ = search(p, key)
		insertCell(p, pos, key, value)
		p.MarkDirty()
		t.pool.Unpin(p)
		return nil, storage.InvalidPage, false, nil
	}
	// Inner node: descend.
	pos, found := search(p, key)
	if found {
		pos++
	}
	var child storage.PageID
	if pos >= nodeCount(p) {
		child = nodeNext(p)
	} else {
		child = innerChild(p, pos)
	}
	t.pool.Unpin(p)
	childSep, childNew, replaced, err := t.insertInto(child, key, value)
	if err != nil || childNew == storage.InvalidPage {
		return nil, storage.InvalidPage, replaced, err
	}
	// Child split: insert (childSep -> child) before the pointer that
	// referenced child, and repoint that slot to childNew.
	p, err = t.pool.Fetch(id)
	if err != nil {
		return nil, storage.InvalidPage, replaced, err
	}
	pos, found = search(p, childSep)
	if found {
		pos++
	}
	if err := t.makeRoom(p, childSep); err != nil {
		sep, right, serr := t.splitInner(p)
		if serr != nil {
			t.pool.Unpin(p)
			return nil, storage.InvalidPage, replaced, serr
		}
		target := p
		var rp *storage.Page
		if bytes.Compare(childSep, sep) >= 0 {
			rp, err = t.pool.Fetch(right)
			if err != nil {
				t.pool.Unpin(p)
				return nil, storage.InvalidPage, replaced, err
			}
			target = rp
		}
		tpos, tfound := search(target, childSep)
		if tfound {
			tpos++
		}
		t.innerInsertAt(target, tpos, childSep, childNew)
		target.MarkDirty()
		if rp != nil {
			t.pool.Unpin(rp)
		}
		p.MarkDirty()
		t.pool.Unpin(p)
		return sep, right, replaced, nil
	}
	t.innerInsertAt(p, pos, childSep, childNew)
	p.MarkDirty()
	t.pool.Unpin(p)
	return nil, storage.InvalidPage, replaced, nil
}

// innerInsertAt inserts separator sep at pos; the child previously in that
// position keeps holding keys < sep, and newRight takes its place for keys
// >= sep.
func (t *BPTree) innerInsertAt(p *storage.Page, pos int, sep []byte, newRight storage.PageID) {
	var oldChild storage.PageID
	if pos >= nodeCount(p) {
		oldChild = nodeNext(p)
		setNodeNext(p, newRight)
	} else {
		oldChild = innerChild(p, pos)
		setInnerChild(p, pos, newRight)
	}
	insertCell(p, pos, sep, uint64(oldChild))
}

// makeRoom ensures the node can absorb a new cell for key, compacting if
// fragmentation is the only obstacle. It returns an error when a split is
// unavoidable.
func (t *BPTree) makeRoom(p *storage.Page, key []byte) error {
	need := cellSpace(key, isLeaf(p))
	if nodeFree(p) >= need {
		return nil
	}
	if storage.PageSize-ixOffsets-nodeLiveBytes(p) >= need {
		compactNode(p)
		if nodeFree(p) >= need {
			return nil
		}
	}
	return errNodeFull
}

var errNodeFull = fmt.Errorf("index: node full")

// splitLeaf moves the upper half of p's cells to a new right sibling and
// returns the separator (first key of the right node).
func (t *BPTree) splitLeaf(p *storage.Page) ([]byte, storage.PageID, error) {
	n := nodeCount(p)
	mid := n / 2
	right, err := t.pool.Allocate()
	if err != nil {
		return nil, storage.InvalidPage, err
	}
	initNode(right, true)
	for i := mid; i < n; i++ {
		insertCell(right, i-mid, cellKey(p, i), leafValue(p, i))
	}
	setNodeCount(p, mid)
	compactNode(p)
	setNodeNext(right, nodeNext(p))
	setNodeNext(p, right.ID())
	sep := append([]byte(nil), cellKey(right, 0)...)
	right.MarkDirty()
	id := right.ID()
	t.pool.Unpin(right)
	return sep, id, nil
}

// splitInner moves the upper half of p's cells to a new right sibling,
// promoting the middle key (which appears in neither node).
func (t *BPTree) splitInner(p *storage.Page) ([]byte, storage.PageID, error) {
	n := nodeCount(p)
	mid := n / 2
	sep := append([]byte(nil), cellKey(p, mid)...)
	midChild := innerChild(p, mid)
	right, err := t.pool.Allocate()
	if err != nil {
		return nil, storage.InvalidPage, err
	}
	initNode(right, false)
	for i := mid + 1; i < n; i++ {
		insertCell(right, i-mid-1, cellKey(p, i), uint64(innerChild(p, i)))
	}
	setNodeNext(right, nodeNext(p))
	setNodeNext(p, midChild)
	setNodeCount(p, mid)
	compactNode(p)
	right.MarkDirty()
	id := right.ID()
	t.pool.Unpin(right)
	return sep, id, nil
}

// Delete removes key, reporting whether it was present. Nodes are never
// merged (lazy deletion).
func (t *BPTree) Delete(key []byte) (bool, error) {
	p, err := t.pool.Fetch(t.root)
	if err != nil {
		return false, err
	}
	for !isLeaf(p) {
		pos, found := search(p, key)
		if found {
			pos++
		}
		var child storage.PageID
		if pos >= nodeCount(p) {
			child = nodeNext(p)
		} else {
			child = innerChild(p, pos)
		}
		t.pool.Unpin(p)
		p, err = t.pool.Fetch(child)
		if err != nil {
			return false, err
		}
	}
	pos, found := search(p, key)
	if !found {
		t.pool.Unpin(p)
		return false, nil
	}
	removeCell(p, pos)
	p.MarkDirty()
	t.pool.Unpin(p)
	t.size--
	return true, nil
}

// Scan iterates entries with key >= start (start nil = from the beginning)
// in ascending key order, calling fn until it returns false or the tree is
// exhausted. The key slice passed to fn is only valid during the call.
func (t *BPTree) Scan(start []byte, fn func(key []byte, value uint64) (bool, error)) error {
	p, err := t.pool.Fetch(t.root)
	if err != nil {
		return err
	}
	for !isLeaf(p) {
		pos, found := search(p, start)
		if found {
			pos++
		}
		var child storage.PageID
		if pos >= nodeCount(p) {
			child = nodeNext(p)
		} else {
			child = innerChild(p, pos)
		}
		t.pool.Unpin(p)
		p, err = t.pool.Fetch(child)
		if err != nil {
			return err
		}
	}
	pos, _ := search(p, start)
	for {
		n := nodeCount(p)
		for ; pos < n; pos++ {
			cont, err := fn(cellKey(p, pos), leafValue(p, pos))
			if err != nil {
				t.pool.Unpin(p)
				return err
			}
			if !cont {
				t.pool.Unpin(p)
				return nil
			}
		}
		next := nodeNext(p)
		t.pool.Unpin(p)
		if next == storage.InvalidPage {
			return nil
		}
		p, err = t.pool.Fetch(next)
		if err != nil {
			return err
		}
		pos = 0
	}
}

// ScanRange iterates entries with start <= key < end (nil end = no bound).
func (t *BPTree) ScanRange(start, end []byte, fn func(key []byte, value uint64) (bool, error)) error {
	return t.Scan(start, func(k []byte, v uint64) (bool, error) {
		if end != nil && bytes.Compare(k, end) >= 0 {
			return false, nil
		}
		return fn(k, v)
	})
}

// Height returns the tree's height (1 = a lone leaf), for diagnostics.
func (t *BPTree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return 0, err
		}
		if isLeaf(p) {
			t.pool.Unpin(p)
			return h, nil
		}
		id = innerChild(p, 0)
		if nodeCount(p) == 0 {
			id = nodeNext(p)
		}
		t.pool.Unpin(p)
		h++
	}
}
