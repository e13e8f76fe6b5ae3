package storage

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// PageType tags what a page holds. The type byte lives in every page
// header so structures can be rediscovered by scanning the device.
type PageType uint8

const (
	// PageMeta is page 0: database metadata.
	PageMeta PageType = iota
	// PageHeap holds slotted variable-length records.
	PageHeap
	// PageOverflow holds one segment of an oversized record.
	PageOverflow
	// PageBTreeLeaf and PageBTreeInner belong to B+-trees.
	PageBTreeLeaf
	// PageBTreeInner is an interior B+-tree node.
	PageBTreeInner
	// PageFree is a deallocated page available for reuse.
	PageFree
)

// Page header layout (common prefix for every page type):
//
//	offset 0:  pageLSN   uint8×8 — LSN of the last logged mutation
//	offset 8:  pageType  uint8
//	offset 9:  checksum  [3]byte — low 24 bits of CRC-32C over the page
//	           (checksum bytes zeroed), stamped at flush, verified on read
//
// Slotted (heap) pages continue with:
//
//	offset 12: slotCount uint16 — number of slot directory entries
//	offset 14: freeStart uint16 — end of the slot directory
//	offset 16: freeEnd   uint16 — start of the record data area
//
// The slot directory grows upward from pageHeaderSize; record data grows
// downward from PageSize. Each slot entry is 4 bytes: record offset and
// record length (offset 0 = empty slot).
const (
	lsnOff        = 0
	typeOff       = 8
	checksumOff   = 9
	slotCountOff  = 12
	freeStartOff  = 14
	freeEndOff    = 16
	pageHeaderLen = 18
	slotDirStart  = 20 // aligned start of the slot directory
	slotEntryLen  = 4
)

// Page is one buffered page. The struct is owned by the buffer pool; users
// access it between Fetch/Unpin pairs.
type Page struct {
	id   PageID
	data [PageSize]byte
	// pin counts the calls holding the page. It rises only under the
	// pool's lock (held shared on a hit) and falls without it.
	pin atomic.Int32
	// ref is the clock's reference bit: set by a hit, cleared by a sweep
	// that passes the page over.
	ref   atomic.Bool
	dirty bool
	// txnDirty marks a page mutated by the active (uncommitted) write
	// transaction; such pages are not evictable (no-steal policy). The pool
	// lists them for EndTxn.
	txnDirty bool
}

// ID returns the page's number.
func (p *Page) ID() PageID { return p.id }

// Data exposes the raw page bytes. Callers must hold a pin.
func (p *Page) Data() []byte { return p.data[:] }

// LSN returns the page's last-mutation LSN.
func (p *Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.data[lsnOff:]) }

// SetLSN stamps the page with the LSN of a logged mutation.
func (p *Page) SetLSN(lsn uint64) { binary.LittleEndian.PutUint64(p.data[lsnOff:], lsn) }

// Type returns the page's type tag.
func (p *Page) Type() PageType { return PageType(p.data[typeOff]) }

// SetType sets the page's type tag.
func (p *Page) SetType(t PageType) { p.data[typeOff] = byte(t) }

// MarkDirty flags the page as modified, so the pool writes it back before
// dropping it. A page the active transaction changes is marked through the
// pool instead (markTxnDirty).
func (p *Page) MarkDirty() { p.dirty = true }

// --- Slotted page operations -------------------------------------------

// InitHeap formats the page as an empty slotted heap page.
func (p *Page) InitHeap() {
	for i := range p.data {
		p.data[i] = 0
	}
	p.SetType(PageHeap)
	p.setSlotCount(0)
	p.setFreeStart(slotDirStart)
	p.setFreeEnd(PageSize)
}

func (p *Page) slotCount() uint16     { return binary.LittleEndian.Uint16(p.data[slotCountOff:]) }
func (p *Page) setSlotCount(n uint16) { binary.LittleEndian.PutUint16(p.data[slotCountOff:], n) }
func (p *Page) freeStart() uint16     { return binary.LittleEndian.Uint16(p.data[freeStartOff:]) }
func (p *Page) setFreeStart(n uint16) { binary.LittleEndian.PutUint16(p.data[freeStartOff:], n) }
func (p *Page) freeEnd() uint16       { return binary.LittleEndian.Uint16(p.data[freeEndOff:]) }
func (p *Page) setFreeEnd(n uint16)   { binary.LittleEndian.PutUint16(p.data[freeEndOff:], n) }

func (p *Page) slotOffset(slot uint16) int { return slotDirStart + int(slot)*slotEntryLen }

func (p *Page) slot(slot uint16) (off, length uint16) {
	base := p.slotOffset(slot)
	return binary.LittleEndian.Uint16(p.data[base:]), binary.LittleEndian.Uint16(p.data[base+2:])
}

func (p *Page) setSlot(slot uint16, off, length uint16) {
	base := p.slotOffset(slot)
	binary.LittleEndian.PutUint16(p.data[base:], off)
	binary.LittleEndian.PutUint16(p.data[base+2:], length)
}

// FreeSpace returns the bytes available for a new record, accounting for
// the slot entry a fresh insertion would need. Holes left by deleted and
// shrunk records count as free: SetSlot compacts the page on demand when
// the contiguous region alone is too small, so the whole reclaimable total
// is genuinely available. (Without counting holes, pages emptied by bulk
// deletes — history rewrites, vacuum — would advertise no room and be
// stranded forever.)
func (p *Page) FreeSpace() int {
	// A new record may need a new slot entry unless an empty one exists.
	free := PageSize - int(p.freeStart()) - p.liveBytes() - slotEntryLen
	if free < 0 {
		return 0
	}
	return free
}

// liveBytes sums the lengths of the records in the page.
func (p *Page) liveBytes() int {
	live := 0
	n := p.slotCount()
	for s := uint16(0); s < n; s++ {
		if off, length := p.slot(s); off != 0 {
			live += int(length)
		}
	}
	return live
}

// MaxHeapRecord is the largest record payload a single heap page can hold.
const MaxHeapRecord = PageSize - slotDirStart - slotEntryLen

// FreeSlot returns the slot a new record takes: the first empty entry of
// the slot directory, or a fresh entry just past its end.
func (p *Page) FreeSlot() uint16 {
	n := p.slotCount()
	for s := uint16(0); s < n; s++ {
		if off, _ := p.slot(s); off == 0 {
			return s
		}
	}
	return n
}

// Fits reports whether SetSlot(slot, rec) succeeds for a record of n bytes.
func (p *Page) Fits(slot uint16, n int) bool {
	if n > MaxHeapRecord {
		return false
	}
	dirEnd, cur := int(p.freeStart()), 0
	if slot < p.slotCount() {
		_, length := p.slot(slot)
		cur = int(length)
	} else {
		dirEnd = p.slotOffset(slot + 1)
	}
	return n <= cur || PageSize-dirEnd-(p.liveBytes()-cur) >= n
}

// SetSlot makes rec the record in slot, extending the slot directory when
// slot lies past its end. A record no longer than the one it replaces is
// overwritten in place; otherwise it goes below the data area, which is
// compacted first when its contiguous room is short. The result is a
// function of the page bytes and the arguments alone, which is what lets
// redo reproduce a page byte for byte. A record that does not fit leaves
// the page untouched.
func (p *Page) SetSlot(slot uint16, rec []byte) error {
	if !p.Fits(slot, len(rec)) {
		return fmt.Errorf("storage: page %d has no room for a %d-byte record in slot %d", p.id, len(rec), slot)
	}
	n := p.slotCount()
	needDir := 0
	if slot < n {
		if off, length := p.slot(slot); off != 0 && len(rec) <= int(length) {
			copy(p.data[off:], rec)
			p.setSlot(slot, off, uint16(len(rec)))
			return nil
		}
		p.setSlot(slot, 0, 0)
	} else {
		needDir = (int(slot) + 1 - int(n)) * slotEntryLen
	}
	if int(p.freeEnd())-int(p.freeStart())-needDir < len(rec) {
		p.compact()
	}
	if slot >= n {
		for s := n; s <= slot; s++ {
			p.setSlot(s, 0, 0)
		}
		p.setSlotCount(slot + 1)
		p.setFreeStart(uint16(p.slotOffset(slot + 1)))
	}
	newEnd := p.freeEnd() - uint16(len(rec))
	copy(p.data[newEnd:], rec)
	p.setFreeEnd(newEnd)
	p.setSlot(slot, newEnd, uint16(len(rec)))
	return nil
}

// ClearSlot empties slot, leaving its directory entry for reuse.
func (p *Page) ClearSlot(slot uint16) error {
	if !p.SlotUsed(slot) {
		return fmt.Errorf("storage: slot %d of page %d is already empty", slot, p.id)
	}
	p.setSlot(slot, 0, 0)
	return nil
}

// ReadRecord returns the record stored in slot. The returned slice aliases
// the page buffer and is valid only while the page is pinned.
func (p *Page) ReadRecord(slot uint16) ([]byte, error) {
	if slot >= p.slotCount() {
		return nil, fmt.Errorf("storage: slot %d out of range on page %d", slot, p.id)
	}
	off, length := p.slot(slot)
	if off == 0 {
		return nil, fmt.Errorf("storage: slot %d of page %d is empty", slot, p.id)
	}
	return p.data[off : off+length], nil
}

// SlotCount returns the size of the slot directory (including empty slots).
func (p *Page) SlotCount() uint16 { return p.slotCount() }

// SlotUsed reports whether the slot holds a record.
func (p *Page) SlotUsed(slot uint16) bool {
	if slot >= p.slotCount() {
		return false
	}
	off, _ := p.slot(slot)
	return off != 0
}

// compact repacks live records against the end of the page, in slot order,
// reclaiming the space of deleted and superseded records. Records are
// copied from an image of the page taken first, so a move never reads
// bytes an earlier move overwrote.
func (p *Page) compact() {
	var img [PageSize]byte
	copy(img[:], p.data[:])
	end := uint16(PageSize)
	n := p.slotCount()
	for s := uint16(0); s < n; s++ {
		off, length := p.slot(s)
		if off == 0 {
			continue
		}
		end -= length
		copy(p.data[end:], img[off:off+length])
		p.setSlot(s, end, length)
	}
	p.setFreeEnd(end)
}
