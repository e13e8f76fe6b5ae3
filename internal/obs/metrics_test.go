package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}

	g := NewGauge()
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var tr *Tracer
	var sl *SlowLog
	c.Inc()
	c.Add(3)
	c.Reset()
	g.Set(1)
	g.Add(1)
	h.Record(1)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if r.Counters() != nil || r.Snapshot() != nil {
		t.Fatal("nil registry snapshots must be nil")
	}
	sp := tr.Start(1, "x")
	sp.End("")
	tr.Point(1, "x", "")
	if tr.Events(0) != nil || tr.Recorded() != 0 {
		t.Fatal("nil tracer must be empty")
	}
	if sl.Slow(time.Second) {
		t.Fatal("nil slowlog must find nothing slow")
	}
	sl.Record("q", time.Second, 0, "", 0)
	if sl.Total() != 0 {
		t.Fatal("nil slowlog must not record")
	}
	_ = r.String()
	_ = sl.String()
}

// TestHistogramQuantileExact checks quantiles against a known distribution
// where every observation is the lower bound of its own power-of-two bucket,
// so interpolation is exact and the expected quantile values are computable
// by hand.
func TestHistogramQuantileExact(t *testing.T) {
	h := NewHistogram()
	// 100 observations: 50x value 1 (bucket [1,2)), 45x value 64
	// (bucket [64,128)), 5x value 1024 (bucket [1024,2048)).
	for i := 0; i < 50; i++ {
		h.Record(1)
	}
	for i := 0; i < 45; i++ {
		h.Record(64)
	}
	for i := 0; i < 5; i++ {
		h.Record(1024)
	}

	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := uint64(50*1 + 45*64 + 5*1024)
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	if s.Max != 1024 {
		t.Fatalf("max = %d, want 1024", s.Max)
	}

	// Midpoint-rank interpolation: rank r of c in-bucket observations sits
	// at fraction (r-0.5)/c of the bucket width [lo, hi).
	// p50: rank 50, bucket [1,2), cum=0, frac=(50-0.5)/50=0.99
	// → 1 + floor(0.99*1) = 1 — matches the actual observed value.
	if got := h.Quantile(0.50); got != 1 {
		t.Fatalf("p50 = %d, want 1", got)
	}
	// p95: rank 95, bucket [64,128), cum=50, frac=(45-0.5)/45
	// → 64 + floor(0.98889*64) = 64 + 63 = 127.
	if got := h.Quantile(0.95); got != 127 {
		t.Fatalf("p95 = %d, want 127", got)
	}
	// p99: rank 99, bucket [1024,2048), cum=95, frac=(4-0.5)/5=0.7
	// → 1024 + floor(0.7*1024) = 1024 + 716 = 1740.
	if got := h.Quantile(0.99); got != 1740 {
		t.Fatalf("p99 = %d, want 1740", got)
	}
	// p10: rank 10, bucket [1,2), frac=(10-0.5)/50=0.19 → 1 + 0 = 1.
	if got := h.Quantile(0.10); got != 1 {
		t.Fatalf("p10 = %d, want 1", got)
	}
}

func TestHistogramSnapshotClampsToMax(t *testing.T) {
	h := NewHistogram()
	// A single observation: interpolation would report the bucket's upper
	// bound, but Snapshot clamps quantiles to the true max.
	h.Record(1000) // bucket [512, 2048)? no: bits.Len64(1000)=10 → [512,1024)
	s := h.Snapshot()
	if s.P50 > s.Max {
		t.Fatalf("p50 %d exceeds max %d", s.P50, s.Max)
	}
	if s.P99 > s.Max {
		t.Fatalf("p99 %d exceeds max %d", s.P99, s.Max)
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	h.Record(0)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero quantile = %d, want 0", got)
	}
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("zero snapshot = %+v", s)
	}
}

func TestHistogramObserveNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5 * time.Second)
	if h.Count() != 1 {
		t.Fatal("negative observation must still count (as 0)")
	}
	if s := h.Snapshot(); s.Max != 0 {
		t.Fatalf("negative clamped max = %d, want 0", s.Max)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Fatal("same name must return same counter")
	}
	c1.Add(7)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Record(100)

	counters := r.Counters()
	if counters["a"] != 7 {
		t.Fatalf("counters[a] = %d, want 7", counters["a"])
	}
	snap := r.Snapshot()
	if snap["a"].(uint64) != 7 {
		t.Fatalf("snapshot[a] = %v", snap["a"])
	}
	if snap["g"].(int64) != -2 {
		t.Fatalf("snapshot[g] = %v", snap["g"])
	}
	hm := snap["h"].(map[string]any)
	if hm["count"].(uint64) != 1 {
		t.Fatalf("snapshot[h].count = %v", hm["count"])
	}
	if r.String() == "" {
		t.Fatal("String must render something")
	}
}

// TestConcurrentUpdates exercises counters and histograms from many
// goroutines; run with -race to validate the synchronization story.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat")
			g := r.Gauge("level")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Record(uint64(id*1000 + i))
				g.Add(1)
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent reads
					_ = h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("level").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
}
