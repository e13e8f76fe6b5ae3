package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tcodm/internal/storage"
)

func newTree(t testing.TB, poolPages int) (*BPTree, *storage.BufferPool) {
	t.Helper()
	dev := storage.NewMemDevice()
	bp := storage.NewBufferPool(dev, poolPages)
	if err := storage.InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	tr, err := New(bp)
	if err != nil {
		t.Fatal(err)
	}
	return tr, bp
}

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestBPTreeBasicCRUD(t *testing.T) {
	tr, _ := newTree(t, 64)
	if err := tr.Insert([]byte("beta"), 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("alpha"), 1); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get([]byte("alpha"))
	if err != nil || !ok || v != 1 {
		t.Fatalf("Get(alpha) = %d, %v, %v", v, ok, err)
	}
	if _, ok, _ := tr.Get([]byte("gamma")); ok {
		t.Error("phantom key")
	}
	// Replace.
	if err := tr.Insert([]byte("alpha"), 11); err != nil {
		t.Fatal(err)
	}
	v, _, _ = tr.Get([]byte("alpha"))
	if v != 11 {
		t.Errorf("after replace: %d", v)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}
	// Delete.
	ok, err = tr.Delete([]byte("alpha"))
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, ok, _ := tr.Get([]byte("alpha")); ok {
		t.Error("deleted key still present")
	}
	ok, _ = tr.Delete([]byte("alpha"))
	if ok {
		t.Error("double delete reported success")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestBPTreeManyKeysSplits(t *testing.T) {
	tr, _ := newTree(t, 256)
	const n = 20000
	// Insert in a shuffled order to exercise splits everywhere.
	perm := rand.New(rand.NewSource(4)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(key(i), uint64(i)*3); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Errorf("tree of %d keys has height %d; splits never happened?", n, h)
	}
	for i := 0; i < n; i += 97 {
		v, ok, err := tr.Get(key(i))
		if err != nil || !ok || v != uint64(i)*3 {
			t.Fatalf("Get(%d) = %d, %v, %v", i, v, ok, err)
		}
	}
	// Full scan is ordered and complete.
	prev := -1
	count := 0
	err = tr.Scan(nil, func(k []byte, v uint64) (bool, error) {
		i := int(binary.BigEndian.Uint64(k))
		if i <= prev {
			return false, fmt.Errorf("out of order: %d after %d", i, prev)
		}
		if v != uint64(i)*3 {
			return false, fmt.Errorf("value mismatch at %d", i)
		}
		prev = i
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
}

func TestBPTreeVariableLengthKeys(t *testing.T) {
	tr, _ := newTree(t, 128)
	rng := rand.New(rand.NewSource(6))
	shadow := map[string]uint64{}
	for i := 0; i < 3000; i++ {
		klen := 1 + rng.Intn(60)
		k := make([]byte, klen)
		rng.Read(k)
		shadow[string(k)] = uint64(i)
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range shadow {
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || v != want {
			t.Fatalf("Get(%x) = %d, %v, %v; want %d", k, v, ok, err, want)
		}
	}
	if tr.Len() != len(shadow) {
		t.Errorf("Len = %d, want %d", tr.Len(), len(shadow))
	}
}

func TestBPTreeScanRange(t *testing.T) {
	tr, _ := newTree(t, 64)
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(key(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	err := tr.ScanRange(key(100), key(110), func(k []byte, v uint64) (bool, error) {
		got = append(got, int(v))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Fatalf("range scan = %v", got)
	}
	// Open-ended scan from near the top.
	var tail []int
	err = tr.Scan(key(997), func(k []byte, v uint64) (bool, error) {
		tail = append(tail, int(v))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 {
		t.Fatalf("tail scan = %v", tail)
	}
	// Early stop.
	n := 0
	_ = tr.Scan(nil, func(k []byte, v uint64) (bool, error) {
		n++
		return n < 5, nil
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestBPTreeRandomizedAgainstModel(t *testing.T) {
	tr, _ := newTree(t, 128)
	rng := rand.New(rand.NewSource(8))
	model := map[string]uint64{}
	for i := 0; i < 20000; i++ {
		k := key(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Uint64()
			model[string(k)] = v
			if err := tr.Insert(k, v); err != nil {
				t.Fatal(err)
			}
		default:
			_, inModel := model[string(k)]
			ok, err := tr.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			if ok != inModel {
				t.Fatalf("delete presence mismatch for %x: tree %v, model %v", k, ok, inModel)
			}
			delete(model, string(k))
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
	}
	// Verify every model entry and full-scan order.
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	err := tr.Scan(nil, func(k []byte, v uint64) (bool, error) {
		if i >= len(keys) {
			return false, fmt.Errorf("scan yielded extra key %x", k)
		}
		if !bytes.Equal(k, []byte(keys[i])) {
			return false, fmt.Errorf("scan key %x, want %x", k, keys[i])
		}
		if v != model[keys[i]] {
			return false, fmt.Errorf("scan value mismatch at %x", k)
		}
		i++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("scan yielded %d keys, want %d", i, len(keys))
	}
}

func TestBPTreePersistsThroughPool(t *testing.T) {
	dev := storage.NewMemDevice()
	bp := storage.NewBufferPool(dev, 16) // small pool: evictions guaranteed
	if err := storage.InitMeta(bp); err != nil {
		t.Fatal(err)
	}
	tr, err := New(bp)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Reopen through a fresh pool over the same device.
	bp2 := storage.NewBufferPool(dev, 16)
	tr2, err := Open(bp2, tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", tr2.Len(), n)
	}
	for i := 0; i < n; i += 71 {
		v, ok, err := tr2.Get(key(i))
		if err != nil || !ok || v != uint64(i) {
			t.Fatalf("reopened Get(%d) = %d, %v, %v", i, v, ok, err)
		}
	}
}

func TestBPTreeRejectsHugeKey(t *testing.T) {
	tr, _ := newTree(t, 16)
	if err := tr.Insert(make([]byte, MaxKeySize+1), 0); err == nil {
		t.Error("oversized key accepted")
	}
}

func TestBPTreeSequentialAndReverseInsert(t *testing.T) {
	for name, order := range map[string]func(i, n int) int{
		"ascending":  func(i, n int) int { return i },
		"descending": func(i, n int) int { return n - 1 - i },
	} {
		t.Run(name, func(t *testing.T) {
			tr, _ := newTree(t, 256)
			const n = 8000
			for i := 0; i < n; i++ {
				k := order(i, n)
				if err := tr.Insert(key(k), uint64(k)); err != nil {
					t.Fatal(err)
				}
			}
			count := 0
			prev := -1
			err := tr.Scan(nil, func(k []byte, v uint64) (bool, error) {
				i := int(binary.BigEndian.Uint64(k))
				if i <= prev {
					return false, fmt.Errorf("disorder at %d", i)
				}
				prev = i
				count++
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if count != n {
				t.Fatalf("count = %d", count)
			}
		})
	}
}

// BenchmarkBPTree is R-T4 (DESIGN.md §4, EXPERIMENTS.md): insert, point
// lookup and a 100-entry range scan on a memory device.
func BenchmarkBPTree(b *testing.B) {
	var kb [8]byte
	benchKey := func(i int) []byte {
		kb[0], kb[1], kb[2], kb[3] = byte(i>>24), byte(i>>16), byte(i>>8), byte(i)
		return kb[:]
	}
	const n = 100_000
	loaded := func(b *testing.B) *BPTree {
		tr, _ := newTree(b, 1024)
		for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
			if err := tr.Insert(benchKey(i), uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		return tr
	}
	b.Run("insert", func(b *testing.B) {
		tr, _ := newTree(b, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tr.Insert(benchKey(i), uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lookup", func(b *testing.B) {
		tr := loaded(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := tr.Get(benchKey(i % n)); err != nil || !ok {
				b.Fatal(err, ok)
			}
		}
	})
	b.Run("range100", func(b *testing.B) {
		tr := loaded(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count := 0
			err := tr.Scan(nil, func(k []byte, v uint64) (bool, error) {
				count++
				return count < 100, nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
