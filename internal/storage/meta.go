package storage

import (
	"encoding/binary"
	"fmt"
)

// The meta page (page 0) holds database-wide state. Layout after the common
// page header:
//
//	offset 20: magic      uint32  ("TCDM")
//	offset 24: version    uint16
//	offset 26: clean      uint8   (1 = clean shutdown / checkpoint)
//	offset 27: pad        uint8
//	offset 28: payloadLen uint32  (engine payload length)
//	offset 32: payload    [...]   (engine-owned bytes)
//
// The engine payload carries the catalog record RID, ID and clock high
// water marks and index roots, but no free list: every open derives that.
const (
	metaMagic   uint32 = 0x5443_444D // "TCDM"
	metaVersion uint16 = 1

	metaMagicOff   = 20
	metaVersionOff = 24
	metaCleanOff   = 26
	metaLenOff     = 28
	metaPayloadOff = 32
	// MetaPayloadMax is the maximum engine payload size.
	MetaPayloadMax = PageSize - metaPayloadOff
)

// InitMeta formats a fresh meta page on the device (page 0).
func InitMeta(pool *BufferPool) error {
	if pool.dev.NumPages() != 0 {
		return fmt.Errorf("storage: InitMeta on non-empty device (%d pages)", pool.dev.NumPages())
	}
	p, err := pool.Allocate()
	if err != nil {
		return err
	}
	defer pool.Unpin(p)
	if p.ID() != 0 {
		return fmt.Errorf("storage: meta page allocated as page %d", p.ID())
	}
	p.SetType(PageMeta)
	binary.LittleEndian.PutUint32(p.data[metaMagicOff:], metaMagic)
	binary.LittleEndian.PutUint16(p.data[metaVersionOff:], metaVersion)
	p.data[metaCleanOff] = 1
	binary.LittleEndian.PutUint32(p.data[metaLenOff:], 0)
	p.MarkDirty()
	return nil
}

// ReadMeta validates the meta page and returns the engine payload and the
// clean-shutdown flag.
func ReadMeta(pool *BufferPool) (payload []byte, clean bool, err error) {
	p, err := pool.Fetch(0)
	if err != nil {
		return nil, false, err
	}
	defer pool.Unpin(p)
	if p.Type() != PageMeta {
		return nil, false, fmt.Errorf("storage: page 0 has type %d, not meta", p.Type())
	}
	if got := binary.LittleEndian.Uint32(p.data[metaMagicOff:]); got != metaMagic {
		return nil, false, fmt.Errorf("storage: bad meta magic %#x", got)
	}
	if got := binary.LittleEndian.Uint16(p.data[metaVersionOff:]); got != metaVersion {
		return nil, false, fmt.Errorf("storage: unsupported database version %d", got)
	}
	n := binary.LittleEndian.Uint32(p.data[metaLenOff:])
	if n > MetaPayloadMax {
		return nil, false, fmt.Errorf("storage: corrupt meta payload length %d", n)
	}
	payload = make([]byte, n)
	copy(payload, p.data[metaPayloadOff:metaPayloadOff+int(n)])
	return payload, p.data[metaCleanOff] == 1, nil
}

// WriteMeta stores the engine payload and clean flag on the meta page.
func WriteMeta(pool *BufferPool, payload []byte, clean bool) error {
	if len(payload) > MetaPayloadMax {
		return fmt.Errorf("storage: meta payload of %d bytes exceeds %d", len(payload), MetaPayloadMax)
	}
	p, err := pool.Fetch(0)
	if err != nil {
		return err
	}
	defer pool.Unpin(p)
	if clean {
		p.data[metaCleanOff] = 1
	} else {
		p.data[metaCleanOff] = 0
	}
	binary.LittleEndian.PutUint32(p.data[metaLenOff:], uint32(len(payload)))
	copy(p.data[metaPayloadOff:], payload)
	p.MarkDirty()
	return nil
}
