package storage

import (
	"math/rand"
	"strings"
	"testing"
)

func TestChecksumRoundTrip(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 4)
	p, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p.InitHeap()
	if err := p.SetSlot(0, []byte("checksummed")); err != nil {
		t.Fatal(err)
	}
	p.MarkDirty()
	id := p.ID()
	bp.Unpin(p)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Evict by churning the pool, then refetch from the device: the
	// checksum must verify.
	for i := 0; i < 8; i++ {
		q, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(q)
	}
	p2, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.ReadRecord(0)
	if err != nil || string(got) != "checksummed" {
		t.Fatalf("record = %q, %v", got, err)
	}
	bp.Unpin(p2)
}

func TestChecksumDetectsCorruption(t *testing.T) {
	dev := NewMemDevice()
	bp := NewBufferPool(dev, 4)
	p, _ := bp.Allocate()
	p.InitHeap()
	if err := p.SetSlot(0, []byte("precious data")); err != nil {
		t.Fatal(err)
	}
	p.MarkDirty()
	id := p.ID()
	bp.Unpin(p)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Corrupt random single bytes directly on the device; a fresh pool
	// must refuse the page every time.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		buf := make([]byte, PageSize)
		if err := dev.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		off := rng.Intn(PageSize)
		orig := buf[off]
		buf[off] ^= byte(1 + rng.Intn(255))
		if buf[off] == orig {
			continue
		}
		if err := dev.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		fresh := NewBufferPool(dev, 4)
		_, err := fresh.Fetch(id)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("trial %d: corruption at %d not detected: %v", trial, off, err)
		}
		// Restore for the next trial.
		buf[off] = orig
		if err := dev.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestChecksumAcceptsZeroPages(t *testing.T) {
	// A crash can leave freshly allocated all-zero pages on the device;
	// they must read back without a checksum complaint.
	dev := NewMemDevice()
	if err := dev.WritePage(0, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(dev, 4)
	p, err := bp.Fetch(0)
	if err != nil {
		t.Fatalf("zero page rejected: %v", err)
	}
	bp.Unpin(p)
}
