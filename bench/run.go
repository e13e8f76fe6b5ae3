package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks stores, fixed counts and the checkpoint interval; only
	// the self-test uses a value other than 1.
	scale float64
	// dir is this run's private scratch directory inside the checkout.
	dir string
	// outDir receives trace_<workload>.json.
	outDir string
}

func (c runConfig) n(full int) int { return scaled(full, c.scale) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the sample count behind each latency metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Percentiles of the measured operation's latency in ms, for reading
	// the tail's shape; only op_ms_p50 and op_ms_tail are metrics.
	Percentiles map[string]float64 `json:"percentiles_ms,omitempty"`
	// Notes carry what a reader needs beside the numbers: which percentile
	// the tail is, generator lateness, bypass checks, first failures.
	Notes []string `json:"notes,omitempty"`
}

func newResult(cfg runConfig) *result {
	return &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]metric{}, Samples: map[string]int{}}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setEndToEnd stores an end-to-end metric under its declared unit.
func (r *result) setEndToEnd(name string, v float64) {
	for _, m := range endToEnd {
		if m.Name == name {
			r.Metrics[name] = metric{v, m.Unit}
			return
		}
	}
	panic("undeclared end-to-end metric " + name)
}

// layerSet accumulates per-layer values; finish fills every declared
// metric the run did not set with 0 (the layer is not on this workload's
// path), so each traced run emits the whole ledger.
type layerSet map[string]float64

func (l layerSet) finish(r *result) {
	for _, m := range perLayer {
		r.Metrics[m.Name] = metric{l[m.Name], m.Unit}
	}
	for name := range l {
		if _, ok := r.Metrics[name]; !ok {
			panic("undeclared per-layer metric " + name)
		}
	}
}

// tally counts attempted and failed operations across goroutines and keeps
// the first few failure messages.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	msgs      []string
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) failf(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < 5 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check counts one operation: failed when err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.failf("%v", err)
		return
	}
	t.ok()
}

func (t *tally) into(r *result) {
	r.Attempted = t.attempted.Load()
	r.Failed = t.failed.Load()
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, m := range t.msgs {
		r.notef("FAILED: %s", m)
	}
}

// Phases of a timed run.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// window times a closed- or open-loop run: workers start in the warm-up
// phase, record only while the phase is phaseMeasure, and leave their loop
// at phaseStop.
type window struct {
	phase atomic.Int32
	// start is the instant measuring began; open-loop workers schedule
	// from it. Written before the phase flips, read after.
	start time.Time
}

// warmShare is the part of --seconds spent warming up before measuring.
const warmShare = 0.15

// run starts the workers, lets them warm up, measures for cfg.seconds and
// returns the measured wall time and the bytes the process allocated in it.
func (w *window) run(seconds float64, workers ...func()) (time.Duration, uint64) {
	var wg sync.WaitGroup
	for _, fn := range workers {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	time.Sleep(time.Duration(seconds * warmShare * float64(time.Second)))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.start = time.Now()
	w.phase.Store(phaseMeasure)
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	w.phase.Store(phaseStop)
	elapsed := time.Since(w.start)
	runtime.ReadMemStats(&m1)
	wg.Wait()
	return elapsed, m1.TotalAlloc - m0.TotalAlloc
}

// closedLoop runs op back to back until the window stops. op returns the
// time the system under test took (answer checking excluded) and whether
// the answer was right. Only operations that started and finished while
// measuring are tallied; only correct ones leave a latency sample, so
// len(*lat) is the count of correct completed operations. between, when
// non-nil, runs after every operation outside its timing.
func (w *window) closedLoop(lat *samples, tl *tally, op func() (time.Duration, error), between func()) {
	for {
		p := w.phase.Load()
		if p == phaseStop {
			return
		}
		d, err := op()
		if p == phaseMeasure && w.phase.Load() == phaseMeasure {
			tl.check(err)
			if err == nil {
				lat.add(d)
			}
		}
		if between != nil {
			between()
		}
	}
}

func merge(parts []samples) samples {
	var all samples
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// finishEndToEnd fills the metrics every workload reports the same way.
func finishEndToEnd(r *result, setup time.Duration, ops int, elapsed time.Duration,
	lat samples, tailQ float64, allocBytes uint64, allOps int, stored, user int64) error {
	sorted := lat.sorted()
	r.setEndToEnd("setup_s", setup.Seconds())
	r.setEndToEnd("ops_per_s", float64(ops)/elapsed.Seconds())
	r.setEndToEnd("op_ms_p50", ms(sorted.quantile(0.50)))
	r.setEndToEnd("op_ms_tail", ms(sorted.quantile(tailQ)))
	r.Samples["op_ms_p50"] = len(sorted)
	r.Samples["op_ms_tail"] = len(sorted)
	r.Percentiles = map[string]float64{}
	for name, q := range map[string]float64{"p50": 0.5, "p90": 0.9, "p95": 0.95, "p99": 0.99, "p99.9": 0.999, "max": 1} {
		r.Percentiles[name] = ms(sorted.quantile(q))
	}
	r.notef("latency ms: p50 %.4g, p90 %.4g, p95 %.4g, p99 %.4g, p99.9 %.4g, max %.4g", r.Percentiles["p50"], r.Percentiles["p90"],
		r.Percentiles["p95"], r.Percentiles["p99"], r.Percentiles["p99.9"], r.Percentiles["max"])
	r.notef("op_ms_tail is p%g of %d samples (%d beyond it)", tailQ*100, len(sorted),
		len(sorted)-int(tailQ*float64(len(sorted))))
	r.setEndToEnd("alloc_kb_per_op", float64(allocBytes)/1024/float64(max(allOps, 1)))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.setEndToEnd("peak_rss_mb", rss)
	r.setEndToEnd("stored_bytes_per_user_byte", float64(stored)/float64(user))
	return nil
}
