package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/index"
	"tcodm/internal/query"
	"tcodm/internal/storage"
	"tcodm/internal/value"
	"tcodm/internal/wire"
)

// Probes drive one layer's public API on a scratch device with the
// workload's key and record shapes. They give the ledger a per-layer unit
// cost that no end-to-end span can isolate from outside the engine.

// probeParse is the mean time of query.Parse over the workload's statements.
func probeParse(texts []string) (float64, error) {
	const rounds = 5
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, text := range texts {
			if _, err := query.Parse(text); err != nil {
				return 0, fmt.Errorf("parse %q: %w", text, err)
			}
		}
	}
	return us(int64(time.Since(t0))) / float64(rounds*len(texts)), nil
}

// probeFrameCodec is the mean AppendFrame+DecodeFrame time for one request
// frame and one reply-rows frame of the point read's shape.
func probeFrameCodec(stmt, name string) float64 {
	payloads := [][]byte{
		wire.EncodeExecTrace(stmt, []value.V{value.String_(name)}, 1),
		wire.EncodeResultRows([][]value.V{{value.String_(name), value.Int(4200)}}),
	}
	types := []byte{wire.FrameExec, wire.FrameResultRows}
	const rounds = 20000
	var buf []byte
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, p := range payloads {
			buf = wire.AppendFrame(buf[:0], types[i], p)
			if _, _, err := wire.DecodeFrame(buf); err != nil {
				panic(err) // a frame this package just encoded
			}
		}
	}
	return float64(time.Since(t0)) / float64(rounds*len(payloads))
}

// probeLayers runs the storage-side probes: atom codec over the store's own
// employees, B+-tree and heap on a scratch memory device with the store's
// key and record shapes, and the sandbox's page write and fsync on a
// scratch file.
func probeLayers(l layerSet, cfg runConfig, db *core.Engine, st *store) error {
	sample := st.empIDs[:min(len(st.empIDs), 500)]
	var records [][]byte
	var enc, dec time.Duration
	for _, id := range sample {
		a, err := db.Atoms().Load(id)
		if err != nil {
			return fmt.Errorf("codec probe: load %v: %w", id, err)
		}
		t0 := time.Now()
		rec := atom.EncodeFull(a)
		t1 := time.Now()
		if _, err := atom.DecodeFull(rec); err != nil {
			return fmt.Errorf("codec probe: decode %v: %w", id, err)
		}
		enc += t1.Sub(t0)
		dec += time.Since(t1)
		records = append(records, rec)
	}
	l["atom.codec_encode_us"] = us(int64(enc)) / float64(len(sample))
	l["atom.codec_decode_us"] = us(int64(dec)) / float64(len(sample))

	pool := storage.NewBufferPool(storage.NewMemDevice(), fitsPool)
	if err := storage.InitMeta(pool); err != nil {
		return err
	}
	tree, err := index.New(pool)
	if err != nil {
		return err
	}
	keys := make([][]byte, len(st.empIDs))
	for e, id := range st.empIDs {
		k := append([]byte("Emp\x00name\x00"), value.AppendKey(nil, value.String_(st.oracle.names[e]))...)
		keys[e] = binary.BigEndian.AppendUint64(k, uint64(id))
	}
	t0 := time.Now()
	for e, k := range keys {
		if err := tree.Insert(k, uint64(st.empIDs[e])); err != nil {
			return fmt.Errorf("index probe: %w", err)
		}
	}
	l["index.insert_us"] = us(int64(time.Since(t0))) / float64(len(keys))
	t0 = time.Now()
	for _, k := range keys {
		if _, ok, err := tree.Get(k); err != nil || !ok {
			return fmt.Errorf("index probe: get: found=%v err=%v", ok, err)
		}
	}
	l["index.get_us"] = us(int64(time.Since(t0))) / float64(len(keys))
	height, err := tree.Height()
	if err != nil {
		return err
	}
	l["index.height"] = float64(height)

	heap := storage.NewHeap(pool, nil)
	rids := make([]storage.RID, len(records))
	t0 = time.Now()
	for i, rec := range records {
		if rids[i], err = heap.Insert(rec); err != nil {
			return fmt.Errorf("heap probe: %w", err)
		}
	}
	l["heap.insert_us"] = us(int64(time.Since(t0))) / float64(len(records))
	t0 = time.Now()
	for _, rid := range rids {
		if _, err := heap.Fetch(rid); err != nil {
			return fmt.Errorf("heap probe: %w", err)
		}
	}
	l["heap.fetch_us"] = us(int64(time.Since(t0))) / float64(len(records))

	syncP50, writeMean, err := probeDevice(filepath.Join(cfg.dir, "probe.dev"))
	if err != nil {
		return err
	}
	l["device.sync_us_p50"], l["device.write_page_us"] = syncP50, writeMean
	return nil
}

// probeDevice times one page write followed by one fsync, 200 times, on a
// scratch file: the sandbox's fsync, so that fsync-bound rows can be read
// for what they are.
func probeDevice(path string) (syncP50us, writeMeanUS float64, err error) {
	dev, err := storage.OpenFileDevice(path)
	if err != nil {
		return 0, 0, err
	}
	defer dev.Close()
	page := make([]byte, storage.PageSize)
	var syncs, writes samples
	for i := 0; i < 200; i++ {
		page[0] = byte(i)
		t0 := time.Now()
		if err := dev.WritePage(storage.PageID(i%32), page); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := dev.Sync(); err != nil {
			return 0, 0, err
		}
		writes.add(t1.Sub(t0))
		syncs.add(time.Since(t1))
	}
	return us(syncs.sorted().quantile(0.5)), usF(writes.mean()), nil
}

// bypassChecks prints the predictions that make a workload a bypass for
// some layer. They are printed, not enforced: a later change may move them
// on purpose (group commit lowers wal.fsyncs_per_commit).
func bypassChecks(r *result, l layerSet) {
	check := func(ok bool, format string, args ...any) {
		verdict := "ok"
		if !ok {
			verdict = "NOT MET"
		}
		r.notef("check %s: %s", verdict, fmt.Sprintf(format, args...))
	}
	misses := l["pool.misses_per_op"]
	switch r.Workload {
	case "remote_point", "slice_scan":
		check(misses < 0.01, "pool.misses_per_op = %.4f < 0.01 (store fits the pool)", misses)
	case "mixed_read", "mixed_write":
		check(misses >= 1, "pool.misses_per_op = %.2f >= 1 (store is larger than the pool)", misses)
	}
	if r.Workload != "remote_point" {
		check(l["wire.bytes_per_op"] == 0, "wire.bytes_per_op = %g (in-process, no wire)", l["wire.bytes_per_op"])
	}
	if r.Workload == "durable_write" {
		f := l["wal.fsyncs_per_commit"]
		check(f > 0.99 && f < 1.01, "wal.fsyncs_per_commit = %.4f within 1%% of 1", f)
	}
}
