package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/obs"
)

// span is one timed call the bench made into a layer's public entry point.
// Parent is the id of the span one entry point up for the same request (0 =
// none). A child is a replay of the same input at the next entry point
// down, so its interval follows its parent's instead of nesting inside it;
// self time is parent duration minus child duration.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced pass runs the same code with a nil tracer.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, label string, parent, request int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Label: label,
		Parent: parent, Request: request, StartNS: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// durations returns the sorted durations of every span with the given name
// (and label, when label is non-empty).
func (t *tracer) durations(name, label string) samples {
	var out samples
	for _, s := range t.spans {
		if s.Name == name && (label == "" || s.Label == label) {
			out = append(out, s.EndNS-s.StartNS)
		}
	}
	return out.sorted()
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// storeLayers fills the rows every traced run takes from its open store:
// its size, its load rate and the layer probes.
func storeLayers(l layerSet, cfg runConfig, db *core.Engine, st *store) error {
	l["device.pages"] = float64(db.Stats().DevicePags)
	l["core.bulk_load_ops_per_s"] = float64(st.loadOps) / st.loadDur.Seconds()
	return probeLayers(l, cfg, db, st)
}

// sealTraced writes the spans out and turns the ledger and the tally into
// the run's result.
func sealTraced(cfg runConfig, r *result, l layerSet, tr *tracer, tl *tally) (*result, error) {
	if err := tr.write(filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json")); err != nil {
		return nil, err
	}
	bypassChecks(r, l)
	tl.into(r)
	l.finish(r)
	return r, nil
}

// overheadRatio is untraced over traced throughput for one fixed-count run:
// the traced pass's time over the mean of an untraced pass before it and
// one after it, so that warm-up and drift fall on both sides.
func overheadRatio(untracedBefore, traced, untracedAfter time.Duration) float64 {
	return traced.Seconds() / ((untracedBefore.Seconds() + untracedAfter.Seconds()) / 2)
}

// --- counter deltas ----------------------------------------------------------

// histNames are the engine histograms the ledger reads.
var histNames = []string{"pool.read_ns", "pool.flush_ns", "atom.decode_ns", "atom.chain_depth",
	"wal.fsync_ns", "wal.append_ns", "wal.commit_group", "server.queue_wait_ns"}

// counters is a point-in-time copy of an engine registry's counters and
// histogram totals; delta subtracts an earlier copy.
type counters struct {
	c map[string]uint64
	h map[string]obs.HistSnapshot
}

func snapshot(reg *obs.Registry) counters {
	s := counters{c: reg.Counters(), h: map[string]obs.HistSnapshot{}}
	for _, name := range histNames {
		s.h[name] = reg.Histogram(name).Snapshot()
	}
	return s
}

func (s counters) delta(before counters) counters {
	d := counters{c: map[string]uint64{}, h: map[string]obs.HistSnapshot{}}
	for k, v := range s.c {
		d.c[k] = v - before.c[k]
	}
	for k, v := range s.h {
		b := before.h[k]
		d.h[k] = obs.HistSnapshot{Count: v.Count - b.Count, Sum: v.Sum - b.Sum, P99: v.P99}
	}
	return d
}

// storageLayers turns a counter delta into the placement-sensitive ledger
// rows, per op. name maps a declared metric name to the name to store it
// under (identity, or withStrategy on slice_scan's other stores).
func storageLayers(l layerSet, d counters, ops uint64, name func(string) string) {
	l[name("atom.chain_steps_per_op")] = perOp(d.h["atom.chain_depth"].Sum, ops)
	l[name("atom.full_loads_per_op")] = perOp(d.c["atom.full_loads"], ops)
	l[name("atom.fast_loads_per_op")] = perOp(d.c["atom.fast_loads"], ops)
	l[name("atom.segment_reads_per_op")] = perOp(d.c["atom.segment_reads"], ops)
	l[name("atom.snapshot_hops_per_op")] = perOp(d.c["atom.snapshot_hops"], ops)
	l[name("heap.fetches_per_op")] = perOp(d.c["heap.fetches"], ops)
}

func identity(s string) string { return s }

// commonLayers fills the ledger rows every workload derives the same way
// from its engine's counter delta over the traced pass.
func commonLayers(l layerSet, d counters, ops uint64) {
	storageLayers(l, d, ops, identity)
	l["atom.decode_us_mean"] = usF(d.h["atom.decode_ns"].Mean())
	hits, misses := d.c["pool.hits"], d.c["pool.misses"]
	if hits+misses > 0 {
		l["pool.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	l["pool.misses_per_op"] = perOp(misses, ops)
	l["pool.evictions_per_op"] = perOp(d.c["pool.evictions"], ops)
	l["pool.flushes_per_op"] = perOp(d.c["pool.flushes"], ops)
	l["pool.read_us_mean"] = usF(d.h["pool.read_ns"].Mean())
	l["pool.flush_us_mean"] = usF(d.h["pool.flush_ns"].Mean())
	l["heap.forward_hops_per_op"] = perOp(d.c["heap.forward_hops"], ops)
	l["heap.overflow_walks_per_op"] = perOp(d.c["heap.overflow_walks"], ops)
	if runs := d.c["query.parallel_runs"]; runs > 0 {
		l["query.parallel_chunks_per_run"] = perOp(d.c["query.parallel_chunks"], runs)
	}
}

// walLayers fills the commit-path rows from a counter delta covering
// `commits` commits that wrote `user` encoded user bytes.
func walLayers(l layerSet, d counters, commits uint64, user int64) {
	l["wal.bytes_per_commit"] = perOp(d.c["wal.append_bytes"], commits)
	l["wal.appends_per_commit"] = perOp(d.c["wal.appends"], commits)
	l["wal.fsyncs_per_commit"] = perOp(d.c["wal.fsyncs"], commits)
	l["wal.fsync_us_mean"] = usF(d.h["wal.fsync_ns"].Mean())
	l["wal.append_us_mean"] = usF(d.h["wal.append_ns"].Mean())
	l["wal.commit_group_mean"] = d.h["wal.commit_group"].Mean()
	if user > 0 {
		l["wal.bytes_per_user_byte"] = float64(d.c["wal.append_bytes"]) / float64(user)
	}
}
