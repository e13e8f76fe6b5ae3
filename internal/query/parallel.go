package query

import (
	"sync"
	"sync/atomic"
	"time"

	"tcodm/internal/value"
)

// parallelChunk is the candidate partition size. It matches the serial
// path's 64-candidate cancellation-poll cadence: a worker polls the context
// once per claimed chunk, so cancellation reaction latency is the same
// bounded number of candidates in both modes.
const parallelChunk = 64

// workerStat is one worker's contribution to a parallel execution, shown
// by EXPLAIN ANALYZE and summed into exact operator counts at merge time.
type workerStat struct {
	chunks int           // partitions this worker claimed
	cands  int64         // candidates it processed
	rows   int64         // rows/molecules it produced
	dur    time.Duration // wall time from launch to completion (analyze only)
}

func (e *Engine) chunkSize() int {
	if e.chunk > 0 {
		return e.chunk
	}
	return parallelChunk
}

// collectCandidates drains the access path into a deduplicated id slice in
// stream order. Dedup is inherently order-dependent so it stays serial; the
// per-candidate pipeline behind it is not, and fans out.
func (e *Engine) collectCandidates(a *Analyzed, typeName string, ctx *execCtx) (string, []value.ID, error) {
	var ids []value.ID
	seen := map[value.ID]bool{}
	var innerErr error
	plan, err := e.candidates(a, typeName, func(id value.ID) (bool, error) {
		if err := ctx.checkCancel(); err != nil {
			innerErr = err
			return false, nil
		}
		if seen[id] {
			return true, nil
		}
		seen[id] = true
		ids = append(ids, id)
		return true, nil
	})
	ctx.scanDesc = plan
	if innerErr != nil {
		return plan, nil, innerErr
	}
	return plan, ids, err
}

// runParallel partitions the candidate stream into fixed-size chunks and
// fans them out across e.Workers goroutines, clamped to the chunk count; a
// stream of one chunk runs on the calling goroutine. Chunks are claimed in
// ascending order from a shared counter (dynamic load balancing); each
// chunk fills its own output fragment, and fragments are concatenated in
// chunk order — so row order, and therefore the merged result, is
// byte-identical to runSerial.
//
// Error semantics also match serial execution: the surfaced error is the
// one raised by the earliest candidate in stream order. Because chunks are
// claimed in ascending order, every chunk before a failing one is already
// claimed and runs to completion, so the minimum failing position recorded
// below is exactly the serial first error. Workers stop claiming new
// (strictly later) chunks once any failure is recorded.
//
// Each worker accumulates counts into a private execCtx; the parent merges
// them after the barrier, keeping EXPLAIN ANALYZE row counts exact without
// shared counters.
func (e *Engine) runParallel(a *Analyzed, typeName string, ctx *execCtx, proc candProc, sink *frag) (string, error) {
	plan, ids, err := e.collectCandidates(a, typeName, ctx)
	if err != nil {
		return plan, err
	}
	chunk := e.chunkSize()
	nchunks := (len(ids) + chunk - 1) / chunk
	workers := e.Workers
	if workers > nchunks {
		workers = nchunks
	}
	frags := make([]frag, nchunks)
	wctxs := make([]*execCtx, workers)
	stats := make([]workerStat, workers)

	var next atomic.Int64
	var failed atomic.Bool
	var mu sync.Mutex
	firstPos := int64(-1)
	var firstErr error
	record := func(pos int64, err error) {
		mu.Lock()
		if firstPos < 0 || pos < firstPos {
			firstPos, firstErr = pos, err
		}
		mu.Unlock()
		failed.Store(true)
	}

	work := func(w int, wctx *execCtx) {
		var start time.Time
		if ctx.analyze || ctx.timed {
			start = time.Now()
		}
		for {
			k := next.Add(1) - 1
			if k >= int64(nchunks) || failed.Load() {
				break
			}
			lo := int(k) * chunk
			// Chunk claims are the cancellation poll points (the serial
			// path polls every 64 candidates; a worker polls per chunk).
			if err := wctx.cancelErr(); err != nil {
				record(int64(lo), err)
				break
			}
			hi := lo + chunk
			if hi > len(ids) {
				hi = len(ids)
			}
			stats[w].chunks++
			abort := false
			for i, id := range ids[lo:hi] {
				if err := proc(id, wctx, &frags[k]); err != nil {
					record(int64(lo+i), err)
					abort = true
					break
				}
			}
			if abort {
				break
			}
		}
		if ctx.analyze || ctx.timed {
			stats[w].dur = time.Since(start)
		}
		stats[w].cands = wctx.scanned
		stats[w].rows = wctx.emitOut
	}

	// One chunk means one worker, and it runs right here: a goroutine
	// handoff buys nothing when there is nothing to overlap.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wctx := &execCtx{analyze: ctx.analyze, timed: ctx.timed, ctx: ctx.ctx}
		wctxs[w] = wctx
		if workers == 1 {
			work(w, wctx)
			continue
		}
		wg.Add(1)
		go func(w int, wctx *execCtx) {
			defer wg.Done()
			work(w, wctx)
		}(w, wctx)
	}
	wg.Wait()

	for _, wctx := range wctxs {
		ctx.merge(wctx)
	}
	ctx.workers = stats
	ctx.chunks = nchunks
	e.met.parRuns.Inc()
	e.met.parChunks.Add(uint64(nchunks))
	e.met.parCands.Add(uint64(len(ids)))
	if firstErr != nil {
		return plan, firstErr
	}
	for i := range frags {
		sink.rows = append(sink.rows, frags[i].rows...)
		sink.mols = append(sink.mols, frags[i].mols...)
	}
	return plan, nil
}
