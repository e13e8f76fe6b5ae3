// Package obs is the engine-wide observability layer: a zero-dependency
// metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms with quantile snapshots), a bounded ring-buffer trace
// recorder, and a structured slow-query log.
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Tracer, or *SlowLog are no-ops, so instrumented code needs
// no branching — "metrics off" is expressed by handing out nil handles,
// which compiles down to one predictable branch per event. Handles created
// outside a Registry (NewCounter, NewHistogram) count but are not exported
// anywhere; components use them as defaults so their stats accessors keep
// working even when no registry is attached.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// --- Counter ---------------------------------------------------------------

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// NewCounter creates a standalone (unregistered) counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter (benchmark support).
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// --- Gauge -----------------------------------------------------------------

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// NewGauge creates a standalone (unregistered) gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// --- Histogram -------------------------------------------------------------

// histBuckets is the number of power-of-two buckets. Bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0
// counts zeros. 64 buckets cover the whole uint64 range, so nanosecond
// latencies from 1ns to centuries land without configuration.
const histBuckets = 65

// Histogram is a fixed-bucket histogram over non-negative integer values
// (typically nanoseconds). Updates are lock-free atomic adds; snapshots are
// racy-consistent, which is fine for monitoring.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
	max    atomic.Uint64
}

// NewHistogram creates a standalone (unregistered) histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int { return bits.Len64(v) }

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// Record adds one observation of value v.
func (h *Histogram) Record(v uint64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Observe records a duration in nanoseconds.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// HistSnapshot is a consistent-enough view of a histogram.
type HistSnapshot struct {
	Count uint64
	Sum   uint64
	Max   uint64
	P50   uint64
	P95   uint64
	P99   uint64
}

// Mean returns the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot captures counts and quantile estimates.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{Count: total, Sum: h.sum.Load(), Max: h.max.Load()}
	s.P50 = quantile(counts[:], total, 0.50)
	s.P95 = quantile(counts[:], total, 0.95)
	s.P99 = quantile(counts[:], total, 0.99)
	if s.P50 > s.Max && s.Max > 0 {
		s.P50 = s.Max
	}
	if s.P95 > s.Max && s.Max > 0 {
		s.P95 = s.Max
	}
	if s.P99 > s.Max && s.Max > 0 {
		s.P99 = s.Max
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return quantile(counts[:], total, q)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// quantile finds the value at rank ceil(q*total) by walking the buckets and
// interpolating linearly inside the containing bucket.
func quantile(counts []uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			// Midpoint-rank interpolation: rank r of the c observations in
			// this bucket sits at fraction (r-0.5)/c of the bucket width,
			// which keeps the estimate strictly inside [lo, hi).
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return lo + uint64(frac*float64(hi-lo))
		}
		cum += c
	}
	lo, _ := bucketBounds(len(counts) - 1)
	return lo
}

// --- Registry --------------------------------------------------------------

// Registry is a named collection of metrics. All accessors are get-or-create
// and nil-safe: a nil *Registry hands out nil handles, whose methods no-op —
// what a component built without an engine (a standalone manager) runs on.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Counters returns a snapshot of every counter's value.
func (r *Registry) Counters() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// Snapshot returns every metric's current value in a JSON-friendly map:
// counters as uint64, gauges as int64, histograms as sub-maps with count,
// sum, mean, max, and p50/p95/p99.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := struct {
		counters map[string]*Counter
		gauges   map[string]*Gauge
		hists    map[string]*Histogram
	}{
		counters: make(map[string]*Counter, len(r.counters)),
		gauges:   make(map[string]*Gauge, len(r.gauges)),
		hists:    make(map[string]*Histogram, len(r.hists)),
	}
	for k, v := range r.counters {
		names.counters[k] = v
	}
	for k, v := range r.gauges {
		names.gauges[k] = v
	}
	for k, v := range r.hists {
		names.hists[k] = v
	}
	r.mu.Unlock()

	out := map[string]any{}
	for name, c := range names.counters {
		out[name] = c.Value()
	}
	for name, g := range names.gauges {
		out[name] = g.Value()
	}
	for name, h := range names.hists {
		s := h.Snapshot()
		out[name] = map[string]any{
			"count": s.Count, "sum": s.Sum, "mean": s.Mean(),
			"max": s.Max, "p50": s.P50, "p95": s.P95, "p99": s.P99,
		}
	}
	return out
}

// String renders a sorted, human-readable dump of every metric.
func (r *Registry) String() string {
	if r == nil {
		return "(metrics disabled)\n"
	}
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		switch v := snap[name].(type) {
		case map[string]any:
			// Histograms named *_ns (or *.ns) hold durations; the rest hold
			// plain quantities (chain depths, group sizes) and print as
			// numbers.
			fmtVal := plainStr
			if strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, ".ns") {
				fmtVal = durStr
			}
			fmt.Fprintf(&sb, "%-28s count=%v mean=%s p50=%s p95=%s p99=%s max=%s\n",
				name, v["count"], fmtVal(v["mean"]), fmtVal(v["p50"]), fmtVal(v["p95"]), fmtVal(v["p99"]), fmtVal(v["max"]))
		default:
			fmt.Fprintf(&sb, "%-28s %v\n", name, v)
		}
	}
	return sb.String()
}

// plainStr renders a histogram statistic as a bare quantity.
func plainStr(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.1f", f)
	}
	return fmt.Sprint(v)
}

// durStr formats a nanosecond quantity human-readably.
func durStr(v any) string {
	var ns float64
	switch x := v.(type) {
	case uint64:
		ns = float64(x)
	case float64:
		ns = x
	default:
		return fmt.Sprint(v)
	}
	switch {
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2fms", ns/1e6)
	default:
		return fmt.Sprintf("%.2fs", ns/1e9)
	}
}
