// Package storage implements the record-oriented storage substrate beneath
// the temporal object layer: a page-granular block device abstraction
// (file-backed or in-memory), 8 KiB slotted pages, a buffer pool with clock
// replacement and pin counts, and a heap record manager with forwarding
// stubs and overflow chains for records larger than a page.
//
// This substrate plays the role the PRIMA kernel played for the original
// system: the non-temporal record storage the temporal complex-object model
// is realized on top of.
package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// PageSize is the unit of I/O and buffering.
const PageSize = 8192

// PageID numbers pages within a device, starting at 0 (the meta page).
type PageID uint32

// InvalidPage is the sentinel for "no page".
const InvalidPage PageID = 0xFFFFFFFF

// Device is a page-granular block store.
type Device interface {
	// ReadPage fills buf (len PageSize) with the contents of page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as the contents of page id.
	// Writing one past the current end grows the device.
	WritePage(id PageID, buf []byte) error
	// NumPages returns the current number of pages.
	NumPages() PageID
	// Sync forces written pages to stable storage.
	Sync() error
	// Close releases the device. The device must not be used afterwards.
	Close() error
}

// FileDevice is a Device backed by a single operating-system file.
type FileDevice struct {
	mu    sync.Mutex
	f     *os.File
	pages PageID
}

// OpenFileDevice opens (creating if needed) the file at path as a device.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open device: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat device: %w", err)
	}
	size := info.Size()
	if rem := size % PageSize; rem != 0 {
		if size < PageSize {
			// Not even a complete meta page: this is not a database (or one
			// whose very first page write tore); nothing to salvage.
			f.Close()
			return nil, fmt.Errorf("storage: device %s holds %d bytes, less than one page — not a database", path, size)
		}
		// A crash mid-grow left a torn partial page at the tail. The grow
		// was never acknowledged (its write did not complete), so the
		// fragment holds no committed data the full pages and log cannot
		// reproduce: truncate it and proceed instead of refusing to open.
		size -= rem
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: truncating torn tail page of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: sync after tail truncation of %s: %w", path, err)
		}
	}
	return &FileDevice{f: f, pages: PageID(size / PageSize)}, nil
}

// ReadPage implements Device.
func (d *FileDevice) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: read buffer has %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= d.pages {
		return fmt.Errorf("storage: read of page %d beyond device end %d", id, d.pages)
	}
	_, err := d.f.ReadAt(buf, int64(id)*PageSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Device.
func (d *FileDevice) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: write buffer has %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id > d.pages {
		return fmt.Errorf("storage: write of page %d would leave a hole (device has %d pages)", id, d.pages)
	}
	if _, err := d.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	if id == d.pages {
		d.pages++
	}
	return nil
}

// NumPages implements Device.
func (d *FileDevice) NumPages() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Sync implements Device.
func (d *FileDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	return nil
}

// Close implements Device.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.Close()
}

// MemDevice is a Device kept entirely in memory, used by tests, benchmarks
// and ephemeral databases.
type MemDevice struct {
	mu    sync.Mutex
	pages [][]byte
	// SyncCount counts Sync calls, letting tests assert durability points.
	SyncCount int
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// ReadPage implements Device.
func (d *MemDevice) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: read buffer has %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of page %d beyond device end %d", id, len(d.pages))
	}
	copy(buf, d.pages[id])
	return nil
}

// WritePage implements Device.
func (d *MemDevice) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: write buffer has %d bytes, want %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case int(id) < len(d.pages):
		copy(d.pages[id], buf)
	case int(id) == len(d.pages):
		p := make([]byte, PageSize)
		copy(p, buf)
		d.pages = append(d.pages, p)
	default:
		return fmt.Errorf("storage: write of page %d would leave a hole (device has %d pages)", id, len(d.pages))
	}
	return nil
}

// NumPages implements Device.
func (d *MemDevice) NumPages() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return PageID(len(d.pages))
}

// Sync implements Device.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.SyncCount++
	return nil
}

// Close implements Device.
func (d *MemDevice) Close() error { return nil }
