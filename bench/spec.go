package main

import "encoding/json"

// The declarations in this file are the benchmark's contract: workload
// names, end-to-end metrics with their regression bounds, and the
// per-layer ledger. BENCHMARK.json at the repository root is this file
// rendered by `bench -print-spec`; TestSpecMatchesBenchmarkJSON keeps the
// two in step.

// runSeconds is how long the driver lets one end-to-end run measure.
const runSeconds = 15

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"remote_point", "Zipf point reads over loopback TCP on a store that fits the pool: client, wire, server and parser do the work, storage is idle"},
	{"slice_scan", "in-process S1-S5 scan cycle over embedded, separated and tuple stores: decode, history placement, executor and molecules work, no wire"},
	{"durable_write", "two committers with fsync per commit and count-triggered checkpoints, crash and reopen: txn, wal and index writes only"},
	{"mixed_read", "reader beside a 200/s paced writer on a pool of 9% of the store, measured at the reader: pool, device and the engine lock"},
	{"mixed_write", "same load as mixed_read measured at the paced writer from its due time: a read-path gain that costs commits shows only here"},
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64 `json:"bound"`
}

// A bound has to hold for the same commit measured twice on this host, or
// the driver's gate fails changes that changed nothing. The builder's
// contract calls a metric steady when its quartile spread over ten seeds is
// below a third of its bound, so each bound is three times the widest spread
// seen on any workload, capped at the driver's 25 % (README, "Bounds", has
// the measurements). The four metrics that scale with the host's speed all
// reach the cap: their spreads were 2-10 % in a quiet half hour and 13-15 %
// in a noisy one, which rules out the issue's 10 % ceiling for them. The
// three that do not depend on the host's speed stay near it.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_tail", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.05},
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Exact marks a count that must repeat exactly for a seed (one client,
	// no timers); times and sizes that depend on the host are not exact.
	Exact bool `json:"-"`
}

func count(name string) layerSpec { return layerSpec{name, "count", "lower", true} }

// placed is a count that depends on where the heap put each record, which
// is not a function of the seed: a record that outgrows its page moves to
// the first page with room in Go map iteration order (README, "Findings").
func placed(name string) layerSpec { return layerSpec{name, "count", "lower", false} }

func micros(name string) layerSpec { return layerSpec{name, "us", "lower", false} }

// scanStrategies are the non-default placements that get their own copy of
// the placement-sensitive layer metrics on slice_scan; the unqualified name
// is the separated store (the engine default and the store of every other
// workload).
var scanStrategies = []string{"embedded", "tuple"}

// placementMetrics are repeated per scanStrategies entry with the strategy
// as second name component (atom.tuple.snapshot_hops_per_op).
var placementMetrics = []layerSpec{
	count("atom.chain_steps_per_op"),
	count("atom.full_loads_per_op"),
	count("atom.fast_loads_per_op"),
	count("atom.segment_reads_per_op"),
	count("atom.snapshot_hops_per_op"),
	micros("atom.state_at_past_us"),
	micros("atom.history_us"),
	count("heap.fetches_per_op"),
	micros("molecule.materialize_us_per_atom"),
	{"scan.cycle_ms_p50", "ms", "lower", false},
}

var perLayer = buildPerLayer()

func buildPerLayer() []layerSpec {
	base := []layerSpec{
		// client / wire / server
		micros("client.exec_us_p50"),
		count("client.retries_per_op"),
		micros("wire.ping_rtt_us_p50"),
		{"wire.bytes_per_op", "B", "lower", false},
		{"wire.frame_codec_ns", "ns", "lower", false},
		micros("server.overhead_us_p50"),
		micros("server.queue_wait_us_p99"),
		count("server.shed_per_op"),
		// query / core
		micros("core.query_us_p50"),
		micros("core.read_us_p50"),
		micros("query.parse_us"),
		count("query.atoms_per_row"),
		count("query.parallel_chunks_per_run"),
		{"core.checkpoint_ms_mean", "ms", "lower", false},
		{"core.recovery_ms", "ms", "lower", false},
		{"core.bulk_load_ops_per_s", "1/s", "higher", false},
		// atom / molecule
		micros("atom.state_at_now_us"),
		micros("atom.state_at_past_us"),
		micros("atom.history_us"),
		count("atom.chain_steps_per_op"),
		count("atom.full_loads_per_op"),
		count("atom.fast_loads_per_op"),
		count("atom.segment_reads_per_op"),
		count("atom.snapshot_hops_per_op"),
		micros("atom.decode_us_mean"),
		micros("atom.codec_decode_us"),
		micros("atom.codec_encode_us"),
		micros("molecule.materialize_us_per_atom"),
		count("molecule.atoms_per_molecule"),
		{"scan.cycle_ms_p50", "ms", "lower", false},
		// index
		micros("index.get_us"),
		micros("index.insert_us"),
		{"index.height", "count", "lower", true},
		// storage
		{"pool.hit_ratio", "ratio", "higher", false},
		placed("pool.misses_per_op"),
		placed("pool.evictions_per_op"),
		placed("pool.flushes_per_op"),
		micros("pool.read_us_mean"),
		micros("pool.flush_us_mean"),
		count("heap.fetches_per_op"),
		placed("heap.forward_hops_per_op"),
		count("heap.overflow_walks_per_op"),
		micros("heap.insert_us"),
		micros("heap.fetch_us"),
		placed("device.pages"),
		micros("device.write_page_us"),
		micros("device.sync_us_p50"),
		// txn / wal / repl / obs
		micros("txn.begin_us_p50"),
		micros("txn.apply_us_p50"),
		micros("txn.commit_us_p50"),
		{"wal.bytes_per_commit", "B", "lower", true},
		count("wal.appends_per_commit"),
		count("wal.fsyncs_per_commit"),
		micros("wal.fsync_us_mean"),
		micros("wal.append_us_mean"),
		{"wal.commit_group_mean", "count", "higher", true},
		{"wal.bytes_per_user_byte", "ratio", "lower", true},
		micros("repl.apply_us_per_group"),
		{"obs.trace_overhead_ratio", "ratio", "lower", false},
	}
	for _, st := range scanStrategies {
		for _, m := range placementMetrics {
			m.Name = withStrategy(m.Name, st)
			base = append(base, m)
		}
	}
	return base
}

// withStrategy inserts the strategy as second component of a layer metric
// name: atom.chain_steps_per_op -> atom.tuple.chain_steps_per_op.
func withStrategy(name, strategy string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i+1] + strategy + name[i:]
		}
	}
	return name
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// benchmarkJSON renders the declarations as the root BENCHMARK.json.
func benchmarkJSON() []byte {
	data, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, workloads, endToEnd, perLayer}, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(data, '\n')
}
