package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func newHeapPage() *Page {
	p := &Page{id: 1}
	p.InitHeap()
	return p
}

// insert places rec in the page's free slot, the way the heap places a new
// record.
func insert(p *Page, rec []byte) (uint16, error) {
	s := p.FreeSlot()
	return s, p.SetSlot(s, rec)
}

func TestPageInsertRead(t *testing.T) {
	p := newHeapPage()
	records := [][]byte{
		[]byte("first"),
		[]byte(""),
		bytes.Repeat([]byte("x"), 1000),
	}
	var slots []uint16
	for _, r := range records {
		s, err := insert(p, r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.ReadRecord(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, records[i]) {
			t.Errorf("slot %d: got %q, want %q", s, got, records[i])
		}
	}
}

func TestPageDeleteAndSlotReuse(t *testing.T) {
	p := newHeapPage()
	s0, _ := insert(p, []byte("a"))
	s1, _ := insert(p, []byte("b"))
	if err := p.ClearSlot(s0); err != nil {
		t.Fatal(err)
	}
	if p.SlotUsed(s0) {
		t.Error("deleted slot still used")
	}
	if _, err := p.ReadRecord(s0); err == nil {
		t.Error("reading deleted record should fail")
	}
	if err := p.ClearSlot(s0); err == nil {
		t.Error("double delete should fail")
	}
	// Reinsert reuses the freed slot.
	s2, _ := insert(p, []byte("c"))
	if s2 != s0 {
		t.Errorf("expected slot reuse: got %d, want %d", s2, s0)
	}
	if got, _ := p.ReadRecord(s1); !bytes.Equal(got, []byte("b")) {
		t.Error("unrelated record disturbed")
	}
}

func TestPageUpdateInPlaceAndGrow(t *testing.T) {
	p := newHeapPage()
	s, _ := insert(p, bytes.Repeat([]byte("a"), 100))
	// Shrink in place.
	if err := p.SetSlot(s, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.ReadRecord(s); string(got) != "tiny" {
		t.Errorf("after shrink: %q", got)
	}
	// Grow within page.
	big := bytes.Repeat([]byte("b"), 500)
	if err := p.SetSlot(s, big); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.ReadRecord(s); !bytes.Equal(got, big) {
		t.Error("after grow: mismatch")
	}
}

func TestPageFullBehaviour(t *testing.T) {
	p := newHeapPage()
	// Fill the page with 1 KiB records.
	rec := bytes.Repeat([]byte("z"), 1024)
	var n int
	for {
		if p.FreeSpace() < len(rec) {
			break
		}
		if _, err := insert(p, rec); err != nil {
			t.Fatalf("insert with reported free space failed: %v", err)
		}
		n++
	}
	if n < 7 {
		t.Errorf("only %d KiB-records fit on an 8 KiB page", n)
	}
	// A grow that does not fit is refused up front and leaves the page
	// byte for byte as it was.
	before := p.data
	if p.Fits(0, 2048) {
		t.Error("Fits reports room for a 2 KiB grow on a full page")
	}
	if err := p.SetSlot(0, bytes.Repeat([]byte("w"), 2048)); err == nil {
		t.Error("grow on a full page accepted")
	}
	if p.data != before {
		t.Error("failed grow changed the page")
	}
}

func TestPageCompaction(t *testing.T) {
	p := newHeapPage()
	// Insert alternating records, delete half, then insert something that
	// only fits after compaction.
	var slots []uint16
	rec := bytes.Repeat([]byte("r"), 700)
	for p.FreeSpace() >= len(rec) {
		s, err := insert(p, rec)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		if i%2 == 0 {
			if err := p.ClearSlot(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Free space is fragmented; a large record forces compaction.
	big := bytes.Repeat([]byte("B"), 2000)
	s, err := insert(p, big)
	if err != nil {
		t.Fatalf("insert after fragmentation failed: %v", err)
	}
	if got, _ := p.ReadRecord(s); !bytes.Equal(got, big) {
		t.Error("big record corrupted")
	}
	// Survivors intact.
	for i, sl := range slots {
		if i%2 == 1 {
			if got, _ := p.ReadRecord(sl); !bytes.Equal(got, rec) {
				t.Errorf("survivor %d corrupted", sl)
			}
		}
	}
}

func TestPageInsertRecordAt(t *testing.T) {
	// Redo places a record at the exact slot its log record names.
	p := newHeapPage()
	if err := p.SetSlot(3, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if p.SlotCount() != 4 {
		t.Errorf("slot count = %d, want 4", p.SlotCount())
	}
	if got, _ := p.ReadRecord(3); string(got) != "late" {
		t.Errorf("record = %q", got)
	}
	for s := uint16(0); s < 3; s++ {
		if p.SlotUsed(s) {
			t.Errorf("intermediate slot %d should be empty", s)
		}
	}
	if err := p.SetSlot(3, []byte("over")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.ReadRecord(3); string(got) != "over" {
		t.Errorf("overwritten record = %q", got)
	}
	if err := p.SetSlot(1, []byte("mid")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.ReadRecord(1); string(got) != "mid" {
		t.Errorf("record = %q", got)
	}
}

func TestPageRandomizedWorkload(t *testing.T) {
	p := newHeapPage()
	rng := rand.New(rand.NewSource(11))
	shadow := map[uint16][]byte{}
	for i := 0; i < 3000; i++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(shadow) == 0: // insert
			rec := make([]byte, rng.Intn(300))
			for j := range rec {
				rec[j] = byte(rng.Intn(256))
			}
			if p.FreeSpace() < len(rec) {
				continue
			}
			s, err := insert(p, rec)
			if err != nil {
				t.Fatalf("iter %d: insert: %v", i, err)
			}
			shadow[s] = rec
		case op == 1: // delete a random live slot
			for s := range shadow {
				if err := p.ClearSlot(s); err != nil {
					t.Fatalf("iter %d: delete: %v", i, err)
				}
				delete(shadow, s)
				break
			}
		default: // update a random live slot
			for s := range shadow {
				rec := make([]byte, rng.Intn(300))
				for j := range rec {
					rec[j] = byte(rng.Intn(256))
				}
				if !p.Fits(s, len(rec)) {
					break // acceptable: page too full to grow
				}
				if err := p.SetSlot(s, rec); err != nil {
					t.Fatalf("iter %d: update: %v", i, err)
				}
				shadow[s] = rec
				break
			}
		}
	}
	for s, want := range shadow {
		got, err := p.ReadRecord(s)
		if err != nil {
			t.Fatalf("final read slot %d: %v", s, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d content diverged", s)
		}
	}
}

func TestPageTypeAndLSN(t *testing.T) {
	p := newHeapPage()
	if p.Type() != PageHeap {
		t.Error("InitHeap did not set type")
	}
	p.SetLSN(42)
	if p.LSN() != 42 {
		t.Error("LSN round-trip broken")
	}
}

func TestPageErrors(t *testing.T) {
	p := newHeapPage()
	if _, err := p.ReadRecord(0); err == nil {
		t.Error("read of nonexistent slot should fail")
	}
	if err := p.ClearSlot(9); err == nil {
		t.Error("clear of nonexistent slot should fail")
	}
	if _, err := insert(p, make([]byte, MaxHeapRecord+1)); err == nil {
		t.Error("oversized record should fail at page level")
	}
}

func ExampleRID_String() {
	fmt.Println(RID{Page: 7, Slot: 3})
	// Output: 7:3
}
