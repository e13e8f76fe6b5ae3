package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/molecule"
	"tcodm/internal/obs"
	"tcodm/internal/schema"
	"tcodm/internal/storage"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Result holds a query's answer: tabular rows and, for SELECT ALL,
// materialized molecules.
type Result struct {
	Columns   []string
	Rows      [][]value.V
	Molecules []*molecule.Molecule
	// Plan describes the chosen access path (diagnostics / experiments).
	Plan string
	// ExplainTree is the operator tree for EXPLAIN [ANALYZE] queries (nil
	// otherwise); Rows then carry its rendered lines.
	ExplainTree *PlanNode
	// Res holds the query's exact resource totals: pages read, WAL bytes,
	// version-chain steps, and atoms scanned. Identical for serial and
	// parallel execution of the same query.
	Res obs.Resources
	// Trace is the trace id the query ran under (0 = untraced).
	Trace uint64
}

// Table renders the rows as an aligned text table.
func (r *Result) Table() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("%d molecule(s)\n", len(r.Molecules))
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range r.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Engine executes analyzed queries against the atom and molecule layers.
type Engine struct {
	Mgr     *atom.Manager
	Builder *molecule.Builder

	// Workers caps intra-query parallelism: candidate streams are
	// partitioned across this many goroutines with an order-preserving
	// merge, so results are byte-identical to serial execution. Values
	// <= 1 run the exact serial path. The atom-layer read path must be
	// safe for concurrent readers (it is: the server already runs whole
	// queries concurrently under the engine's shared lock).
	Workers int

	// chunk overrides the candidate partition size (tests only; 0 = the
	// parallelChunk default, which matches the serial cancel-poll cadence).
	chunk int

	met    engineMetrics
	tracer *obs.Tracer
	plans  planCache
}

// SetTracer binds the engine to a span store: queries that carry a trace id
// (Defaults.Trace != 0) emit per-operator, per-worker, and storage spans
// into it. A nil tracer disables executor tracing.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// engineMetrics holds the query engine's instrumentation handles. The
// defaults are nil no-ops; SetMetrics binds them to a registry. Parallel
// bookkeeping fires once per query (not per row), so counters are enough.
type engineMetrics struct {
	parRuns   *obs.Counter // queries that took the parallel path
	parChunks *obs.Counter // candidate partitions dispatched to workers
	parCands  *obs.Counter // candidates processed by parallel workers
}

// SetMetrics binds the engine's instrumentation to reg under
// "query.parallel_*" names. A nil registry disables it (nil no-op handles).
func (e *Engine) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		e.met = engineMetrics{}
		return
	}
	e.met = engineMetrics{
		parRuns:   reg.Counter("query.parallel_runs"),
		parChunks: reg.Counter("query.parallel_chunks"),
		parCands:  reg.Counter("query.parallel_cands"),
	}
}

// NewEngine wires a query engine.
func NewEngine(mgr *atom.Manager) *Engine {
	return &Engine{Mgr: mgr, Builder: molecule.NewBuilder(mgr)}
}

// Defaults are the session-supplied slice coordinates used when the query
// text has no AT / ASOF clause. The zero TT means "the latest recorded
// state" (atom.Now), so Defaults{VT: vt} does the expected thing.
type Defaults struct {
	VT temporal.Instant
	TT temporal.Instant

	// Trace and Span tie this execution into a distributed trace: Trace is
	// the query's trace id and Span the parent span the executor's spans
	// attach under (the engine's "exec" span). Zero Trace disables tracing.
	Trace uint64
	Span  uint64
}

// tt returns the effective default transaction time.
func (d Defaults) tt() temporal.Instant {
	if d.TT == 0 {
		return atom.Now
	}
	return d.TT
}

// Run parses, analyzes, and executes src. defaultVT is the valid time used
// when the query has no AT clause (the engine passes its clock's now).
func (e *Engine) Run(src string, defaultVT temporal.Instant) (*Result, error) {
	return e.RunCtx(context.Background(), src, Defaults{VT: defaultVT})
}

// RunCtx executes src under ctx with params bound into its $1..$n slots.
// The text is parsed and analyzed once per engine and schema (see plan);
// each run binds its own parameters into a copy. Cancellation or deadline
// expiry stops execution at the next operator-loop boundary and surfaces
// the context's error.
func (e *Engine) RunCtx(ctx context.Context, src string, def Defaults, params ...value.V) (*Result, error) {
	tmpl, err := e.plan(src, e.Mgr.Schema())
	if err != nil {
		return nil, err
	}
	a, err := bind(tmpl, params)
	if err != nil {
		return nil, err
	}
	if a.Query.Explain {
		return e.explain(ctx, a, def)
	}
	return e.ExecuteCtx(ctx, a, def)
}

// Execute runs an analyzed query.
func (e *Engine) Execute(a *Analyzed, defaultVT temporal.Instant) (*Result, error) {
	return e.ExecuteCtx(context.Background(), a, Defaults{VT: defaultVT})
}

// ExecuteCtx runs an analyzed query under ctx.
func (e *Engine) ExecuteCtx(ctx context.Context, a *Analyzed, def Defaults) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q := a.Query
	vt := def.VT
	if q.At != nil {
		vt = *q.At
	}
	tt := def.tt()
	if q.AsOf != nil {
		tt = *q.AsOf
	}
	traced := e.tracer != nil && def.Trace != 0
	ectx := &execCtx{ctx: ctx, timed: traced}
	var start time.Time
	if traced {
		start = time.Now()
	}
	res, err := e.executeClass(a, vt, tt, ectx)
	if err != nil {
		return nil, err
	}
	applyOrderLimit(a, res)
	res.Res = ectx.res
	res.Trace = def.Trace
	if traced {
		e.emitTrace(a, def, ectx, start, time.Since(start))
	}
	return res, nil
}

// emitTrace records the executor's span tree after the query completes:
// per-operator spans, per-worker spans (parallel runs), and one storage
// span carrying the exact resource totals, all children of the engine's
// exec span (def.Span). Emission is post-hoc because per-stage durations
// and merged totals only exist once every worker has finished; operator
// spans therefore share the query's start instant and carry the stage's
// accumulated duration across all candidates.
func (e *Engine) emitTrace(a *Analyzed, def Defaults, ctx *execCtx, start time.Time, total time.Duration) {
	tr, q := e.tracer, a.Query
	emit := func(name string, dur time.Duration, attrs string, res obs.Resources) {
		tr.EmitSpan(def.Trace, def.Span, name, start, dur, attrs, res)
	}
	emit("op:scan", 0, fmt.Sprintf("cands=%d %s", ctx.scanned, ctx.scanDesc), obs.Resources{})
	if q.When != nil {
		emit("op:when", ctx.whenDur, fmt.Sprintf("out=%d", ctx.whenOut), obs.Resources{})
	}
	emit("op:time-slice", ctx.sliceDur, fmt.Sprintf("out=%d", ctx.sliceOut), obs.Resources{})
	if q.Where != nil {
		emit("op:where", ctx.whereDur, fmt.Sprintf("out=%d", ctx.whereOut), obs.Resources{})
	}
	if a.Class == ClassMolecule {
		emit("op:materialize", 0, fmt.Sprintf("molecules=%d", ctx.matCount), obs.Resources{})
	}
	emit("op:emit", ctx.emitDur, fmt.Sprintf("out=%d", ctx.emitOut), obs.Resources{})
	for i, ws := range ctx.workers {
		emit(fmt.Sprintf("worker %d", i), ws.dur,
			fmt.Sprintf("chunks=%d cands=%d rows=%d", ws.chunks, ws.cands, ws.rows), obs.Resources{})
	}
	if ctx.res.Arc > 0 {
		// A deep-history read crossed the tiering watermark: surface the
		// cold-archive traffic as its own span so a trace shows at a glance
		// which queries paid for archived history.
		emit("archive", 0, fmt.Sprintf("blocks=%d", ctx.res.Arc), obs.Resources{Arc: ctx.res.Arc})
	}
	emit("storage", total, "", ctx.res)
}

// frag is the output fragment one candidate partition produces. Serial
// execution fills a single fragment; parallel execution fills one per chunk
// and concatenates them in chunk order, which reproduces the serial row
// order exactly.
type frag struct {
	rows [][]value.V
	mols []*molecule.Molecule
}

// candProc processes one deduplicated candidate id, appending output to
// sink and accounting operator counts into ctx. Implementations must be
// safe for concurrent use with distinct (ctx, sink) pairs: all shared state
// (atom manager, molecule builder) is read-only during query execution.
type candProc func(id value.ID, ctx *execCtx, sink *frag) error

// executeClass dispatches on the query class, accumulating operator counts
// (and, when ctx.analyze is set, per-stage wall time) into ctx. The
// per-candidate pipeline is identical for serial and parallel execution;
// only the driver differs.
func (e *Engine) executeClass(a *Analyzed, vt, tt temporal.Instant, ctx *execCtx) (*Result, error) {
	q := a.Query
	res := &Result{}
	var proc candProc
	switch a.Class {
	case ClassAtom:
		for _, p := range q.Projs {
			res.Columns = append(res.Columns, p.Label())
		}
		proc = e.atomProc(a, vt, tt)
	case ClassHistory:
		res.Columns = []string{"id", q.History.Attr, "valid_from", "valid_to"}
		proc = e.historyProc(a, vt, tt)
	case ClassMolecule:
		if !q.SelectAll {
			for _, p := range q.Projs {
				res.Columns = append(res.Columns, p.Label())
			}
		}
		proc = e.moleculeProc(a, vt, tt)
	default:
		return nil, fmt.Errorf("query: unknown query class %d", a.Class)
	}

	typeName := baseType(a).Name
	var out frag
	var plan string
	var err error
	if e.Workers > 1 {
		plan, err = e.runParallel(a, typeName, ctx, proc, &out)
	} else {
		plan, err = e.runSerial(a, typeName, ctx, proc, &out)
	}
	if err != nil {
		return nil, err
	}
	res.Rows = out.rows
	res.Molecules = out.mols
	res.Plan = plan
	if a.Class == ClassMolecule {
		res.Plan = plan + " + molecule materialization (" + a.MolType.Name + ")"
	}
	return res, nil
}

// runSerial streams candidates through proc on the calling goroutine — the
// exact single-threaded path (Workers <= 1). Deduplication and sampled
// cancellation polling happen here, in stream order.
func (e *Engine) runSerial(a *Analyzed, typeName string, ctx *execCtx, proc candProc, sink *frag) (string, error) {
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
		if err := proc(id, ctx, sink); err != nil {
			innerErr = err
			return false, nil
		}
		return true, nil
	})
	ctx.scanDesc = plan
	if innerErr != nil {
		return plan, innerErr
	}
	return plan, err
}

// applyOrderLimit sorts and truncates the result per ORDER BY / LIMIT.
func applyOrderLimit(a *Analyzed, res *Result) {
	q := a.Query
	if q.OrderBy != "" {
		if col, ok := orderColumn(a); ok {
			sort.SliceStable(res.Rows, func(i, j int) bool {
				cmp := res.Rows[i][col].Compare(res.Rows[j][col])
				if q.OrderDesc {
					return cmp > 0
				}
				return cmp < 0
			})
		}
	}
	if q.Limit > 0 {
		if len(res.Rows) > q.Limit {
			res.Rows = res.Rows[:q.Limit]
		}
		if len(res.Molecules) > q.Limit {
			res.Molecules = res.Molecules[:q.Limit]
		}
	}
}

// candidates streams the candidate atom IDs for the FROM type, pruning
// with the time index (WHEN clauses) or the value index (sargable WHERE
// conjuncts) when available. Returns the plan description.
func (e *Engine) candidates(a *Analyzed, typeName string, fn func(id value.ID) (bool, error)) (string, error) {
	q := a.Query
	if q.When != nil && !q.When.Lifespan {
		if bound, ok := whenStartBound(q.When); ok {
			err := e.Mgr.TimeIndexScan(q.When.Attr.Type, q.When.Attr.Attr, bound, fn)
			if err == nil {
				return fmt.Sprintf("time-index scan on %s below %v", q.When.Attr, bound), nil
			}
			// Time index unavailable: fall through.
		}
	}
	if q.When == nil && e.Mgr.HasValueIndex() {
		if pred := sargable(q.Where, baseType(a)); pred != nil {
			err := e.Mgr.ValueIndexScan(typeName, pred.attr, pred.op, pred.lit, fn)
			if err == nil {
				return fmt.Sprintf("value-index scan on %s.%s %s %s", typeName, pred.attr, pred.op, pred.lit), nil
			}
		}
	}
	err := e.Mgr.ScanType(typeName, func(id value.ID, _ storage.RID) (bool, error) {
		return fn(id)
	})
	return "full type scan on " + typeName, err
}

func baseType(a *Analyzed) *schema.AtomType {
	if a.Class == ClassMolecule {
		return a.RootType
	}
	return a.AtomType
}

// indexablePred is a WHERE conjunct the value index can serve.
type indexablePred struct {
	attr string
	op   string
	lit  value.V
}

// sargable finds a usable conjunct in the WHERE tree: a comparison between
// an attribute of the scanned type and a same-kind literal, reachable
// through top-level ANDs (any other operator shape disables the index for
// that branch). "!=" is never sargable.
func sargable(e *Expr, t *schema.AtomType) *indexablePred {
	if e == nil || t == nil {
		return nil
	}
	switch e.Op {
	case "AND":
		if p := sargable(e.Left, t); p != nil {
			return p
		}
		return sargable(e.Right, t)
	case "=", "<", "<=", ">", ">=":
		ref, lit, op := e.Left, e.Right, e.Op
		if ref.Ref == nil && lit.Ref != nil {
			// literal op ref: flip the comparison.
			ref, lit = lit, ref
			op = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
		}
		if ref.Ref == nil || lit.Lit == nil || lit.Lit.IsNull() {
			return nil
		}
		at, ok := t.Attr(ref.Ref.Attr)
		if !ok || at.Kind != lit.Lit.Kind() {
			return nil
		}
		return &indexablePred{attr: ref.Ref.Attr, op: op, lit: *lit.Lit}
	default:
		return nil
	}
}

// whenStartBound derives an exclusive upper bound on the valid-start
// instants of versions that can satisfy the WHEN predicate: every
// predicate constrains the version to begin before some instant.
func whenStartBound(w *WhenClause) (temporal.Instant, bool) {
	switch w.Pred {
	case PredOverlaps, PredDuring:
		return w.Period.To, true
	case PredContains, PredEquals:
		return w.Period.From + 1, true
	case PredPrecedes, PredMeets:
		return w.Period.From, true
	default:
		return 0, false
	}
}

// errOutsideReadSet reports a bug in readSet: evaluation reached for
// something analysis did not put in the statement's read set. It is an
// error rather than a NULL because a silently wrong row is the worse
// failure.
func errOutsideReadSet(what, attr string) error {
	return fmt.Errorf("query: internal error: %s of %q is outside the statement's read set", what, attr)
}

// whenHolds evaluates the WHEN clause exactly for one atom.
func whenHolds(w *WhenClause, rd *atom.Reading) (bool, error) {
	if w.Lifespan {
		for _, iv := range rd.Lifespan {
			if w.Pred.Holds(iv, w.Period) {
				return true, nil
			}
		}
		return false, nil
	}
	hist, ok := rd.History(w.Attr.Attr)
	if !ok {
		return false, errOutsideReadSet("history", w.Attr.Attr)
	}
	for _, v := range hist {
		if w.Pred.Holds(v.Valid, w.Period) {
			return true, nil
		}
	}
	return false, nil
}

// atomProc builds the per-candidate pipeline for atom-class queries:
// WHEN / time-slice / WHERE filters, then projection (temporal aggregates
// evaluate per atom, so no cross-partition merge state is needed).
func (e *Engine) atomProc(a *Analyzed, vt, tt temporal.Instant) candProc {
	q := a.Query
	window := temporal.All()
	if q.During != nil {
		window = *q.During
	}
	return func(id value.ID, ctx *execCtx, sink *frag) error {
		return e.processCandidate(a, vt, tt, id, ctx, func(rd *atom.Reading) error {
			row := make([]value.V, 0, len(q.Projs))
			for _, p := range q.Projs {
				var v value.V
				var err error
				if p.Agg != "" {
					v, err = evalAggregate(rd, p, window)
				} else {
					v, err = projectValue(rd.State, p)
				}
				if err != nil {
					return err
				}
				row = append(row, v)
			}
			sink.rows = append(sink.rows, row)
			ctx.emitOut++
			return nil
		})
	}
}

// evalAggregate computes a temporal aggregate over one atom's attribute
// history within the window. Aggregates over one attribute share the one
// history the candidate's reading holds.
func evalAggregate(rd *atom.Reading, p Projection, window temporal.Interval) (value.V, error) {
	hist, ok := rd.History(p.Attr.Attr)
	if !ok {
		return value.Null, errOutsideReadSet("history", p.Attr.Attr)
	}
	return foldAggregate(p.Agg, hist, window)
}

// foldAggregate folds a temporal aggregate over a history — versions sorted
// by valid start, each a step of the attribute's step-wise constant
// function — clipped to window, walking the versions in place:
//
//   - TAVG: duration-weighted average of the numeric steps; a step of
//     unbounded duration has no weight. Null when no step has weight.
//   - TMIN / TMAX: extremum of the non-Null values; ties keep the earliest.
//   - CHANGES: value transitions, i.e. runs of equal, abutting steps minus one.
func foldAggregate(agg string, hist []atom.Version, window temporal.Interval) (value.V, error) {
	var (
		sum, dur float64 // TAVG
		best     value.V // TMIN, TMAX; Null until a value is found
		runs     int64   // CHANGES
		runVal   value.V // value and end of the current run
		runTo    temporal.Instant
	)
	for i := range hist {
		v := &hist[i]
		iv := v.Valid.Intersect(window)
		if iv.IsEmpty() {
			continue
		}
		switch agg {
		case "TAVG":
			if d := iv.Duration(); v.Val.Numeric() && d != math.MaxInt64 {
				sum += v.Val.FloatValue() * float64(d)
				dur += float64(d)
			}
		case "TMIN", "TMAX":
			if v.Val.IsNull() {
				continue
			}
			if cmp := v.Val.Compare(best); best.IsNull() || (agg == "TMAX" && cmp > 0) || (agg == "TMIN" && cmp < 0) {
				best = v.Val
			}
		case "CHANGES":
			if runs > 0 && runVal.Equal(v.Val) && runTo == iv.From {
				runTo = iv.To
				continue
			}
			runs++
			runVal, runTo = v.Val, iv.To
		}
	}
	switch agg {
	case "TAVG":
		if dur == 0 {
			return value.Null, nil
		}
		return value.Float(sum / dur), nil
	case "TMIN", "TMAX":
		return best, nil
	case "CHANGES":
		return value.Int(max(runs-1, 0)), nil
	default:
		return value.Null, fmt.Errorf("query: unknown aggregate %q", agg)
	}
}

// readCandidate reads one candidate — once, keeping the statement's read
// set — and charges the time to first, the duration of the first stage that
// consumes the reading.
func (e *Engine) readCandidate(a *Analyzed, vt, tt temporal.Instant, id value.ID, ctx *execCtx, first *time.Duration) (atom.Reading, error) {
	ctx.scanned++
	ctx.res.Atoms++
	start := ctx.now()
	rd, err := e.Mgr.Read(id, a.Reads, vt, tt, &ctx.res)
	*first += since(start)
	return rd, err
}

// passesWhen applies the WHEN filter to a reading, accounting the stage.
func passesWhen(w *WhenClause, rd *atom.Reading, ctx *execCtx) (bool, error) {
	start := ctx.now()
	ok, err := whenHolds(w, rd)
	ctx.whenDur += since(start)
	if ok {
		ctx.whenOut++
	}
	return ok, err
}

// passesWhere applies the WHERE filter to a state, accounting the stage.
func passesWhere(where *Expr, st *atom.State, ctx *execCtx) (bool, error) {
	start := ctx.now()
	ok, err := evalBool(where, st)
	ctx.whereDur += since(start)
	if ok {
		ctx.whereOut++
	}
	return ok, err
}

// processCandidate reads one candidate, applies the WHEN and WHERE filters
// and calls emit with the qualifying reading, accumulating per-stage counts
// into ctx. A nil return with no emit means the candidate was filtered out.
func (e *Engine) processCandidate(a *Analyzed, vt, tt temporal.Instant, id value.ID, ctx *execCtx, emit func(*atom.Reading) error) error {
	q := a.Query
	first := &ctx.sliceDur
	if q.When != nil {
		first = &ctx.whenDur
	}
	rd, err := e.readCandidate(a, vt, tt, id, ctx, first)
	if err != nil {
		return err
	}
	if q.When != nil {
		if ok, err := passesWhen(q.When, &rd, ctx); err != nil || !ok {
			return err
		}
	} else if !rd.State.Alive {
		// Without a WHEN clause the query is a pure time-slice: only atoms
		// alive at vt qualify. With WHEN, selection is by history.
		return nil
	}
	ctx.sliceOut++
	if q.Where != nil {
		if ok, err := passesWhere(q.Where, rd.State, ctx); err != nil || !ok {
			return err
		}
	}
	start := ctx.now()
	err = emit(&rd)
	ctx.emitDur += since(start)
	return err
}

// projectValue reads one plain projection off a state.
func projectValue(st *atom.State, p Projection) (value.V, error) {
	if p.Count != "" {
		return value.Null, nil // counts are molecule-level; unreachable for atoms
	}
	return attrValue(st, p.Attr.Attr)
}

// attrValue is an attribute's value in a state: the value of a plain
// attribute, the cardinality of a set attribute at the slice point.
func attrValue(st *atom.State, attr string) (value.V, error) {
	if v, ok := st.Vals[attr]; ok {
		return v, nil
	}
	if vs, ok := st.Sets[attr]; ok {
		return value.Int(int64(len(vs))), nil
	}
	return value.Null, errOutsideReadSet("value", attr)
}

// historyProc builds the per-candidate pipeline for HISTORY() queries. The
// stages differ from the atom pipeline (no liveness test, and the read set
// carries a state only when a WHERE needs one to evaluate against), so it
// does not share processCandidate.
func (e *Engine) historyProc(a *Analyzed, vt, tt temporal.Instant) candProc {
	q := a.Query
	window := temporal.All()
	if q.During != nil {
		window = *q.During
	}
	return func(id value.ID, ctx *execCtx, sink *frag) error {
		first := &ctx.emitDur
		switch {
		case q.When != nil:
			first = &ctx.whenDur
		case q.Where != nil:
			first = &ctx.sliceDur
		}
		rd, err := e.readCandidate(a, vt, tt, id, ctx, first)
		if err != nil {
			return err
		}
		if q.When != nil {
			if ok, err := passesWhen(q.When, &rd, ctx); err != nil || !ok {
				return err
			}
		}
		ctx.sliceOut++
		if q.Where != nil {
			if ok, err := passesWhere(q.Where, rd.State, ctx); err != nil || !ok {
				return err
			}
		}
		hist, ok := rd.History(q.History.Attr)
		if !ok {
			return errOutsideReadSet("history", q.History.Attr)
		}
		start := ctx.now()
		for _, v := range hist {
			iv := v.Valid.Intersect(window)
			if iv.IsEmpty() {
				continue
			}
			sink.rows = append(sink.rows, []value.V{
				value.Ref(id), v.Val, value.Instant(iv.From), value.Instant(iv.To),
			})
			ctx.emitOut++
		}
		ctx.emitDur += since(start)
		return nil
	}
}

// moleculeProc builds the per-candidate pipeline for molecule-class
// queries: the atom pipeline on the root type, then materialization,
// HAVING, and projection/unnesting. Materialize is read-only over the atom
// layer, so root candidates parallelize like any other candidate stream.
func (e *Engine) moleculeProc(a *Analyzed, vt, tt temporal.Instant) candProc {
	q := a.Query
	return func(id value.ID, ctx *execCtx, sink *frag) error {
		return e.processCandidate(a, vt, tt, id, ctx, func(rd *atom.Reading) error {
			st := rd.State
			// Materialization is the expensive per-candidate stage (it can touch
			// thousands of atoms per molecule), so poll cancellation on every
			// molecule rather than at the sampled scan cadence.
			if err := ctx.cancelErr(); err != nil {
				return err
			}
			mol, err := e.Builder.Materialize(a.MolType, st.ID, vt, tt, &ctx.res)
			if err != nil {
				return err
			}
			ctx.matCount++
			if q.Having != nil {
				ok, err := evalHaving(q.Having, mol)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			ctx.havingOut++
			if q.SelectAll {
				sink.mols = append(sink.mols, mol)
				ctx.emitOut++
				return nil
			}
			rows, err := moleculeRows(q, a, st, mol)
			if err != nil {
				return err
			}
			sink.rows = append(sink.rows, rows...)
			ctx.emitOut += int64(len(rows))
			return nil
		})
	}
}

// moleculeRows projects one molecule into result rows. Projections of
// non-root constituent types unnest the molecule: one row per combination
// of constituents, inner-join style (a molecule lacking a referenced type
// yields no rows). Root attributes and COUNTs repeat per row.
func moleculeRows(q *Query, a *Analyzed, root *atom.State, mol *molecule.Molecule) ([][]value.V, error) {
	// The referenced non-root types, in first-appearance order.
	var unnest []string
	seen := map[string]bool{}
	for _, p := range q.Projs {
		if p.Count == "" && p.Attr != nil && p.Attr.Type != a.RootType.Name && !seen[p.Attr.Type] {
			unnest = append(unnest, p.Attr.Type)
			seen[p.Attr.Type] = true
		}
	}
	// Current bindings: type -> chosen constituent state.
	binding := map[string]*atom.State{}
	var rows [][]value.V
	var emit func(level int) error
	emit = func(level int) error {
		if level == len(unnest) {
			row := make([]value.V, 0, len(q.Projs))
			for _, p := range q.Projs {
				st := root
				switch {
				case p.Count != "":
					row = append(row, value.Int(int64(len(mol.AtomsOfType(p.Count)))))
					continue
				case p.Attr.Type != a.RootType.Name:
					st = binding[p.Attr.Type]
				}
				v, err := projectValue(st, p)
				if err != nil {
					return err
				}
				row = append(row, v)
			}
			rows = append(rows, row)
			return nil
		}
		for _, st := range mol.AtomsOfType(unnest[level]) {
			binding[unnest[level]] = st
			if err := emit(level + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err := emit(0)
	return rows, err
}

// evalHaving qualifies a molecule: each comparison leaf `T.attr op lit`
// holds iff SOME constituent atom of type T satisfies it (existential
// qualification); AND/OR/NOT compose those per-comparison facts. NOT thus
// reads "no constituent satisfies".
func evalHaving(ex *Expr, mol *molecule.Molecule) (bool, error) {
	switch ex.Op {
	case "AND":
		l, err := evalHaving(ex.Left, mol)
		if err != nil || !l {
			return false, err
		}
		return evalHaving(ex.Right, mol)
	case "OR":
		l, err := evalHaving(ex.Left, mol)
		if err != nil || l {
			return l, err
		}
		return evalHaving(ex.Right, mol)
	case "NOT":
		l, err := evalHaving(ex.Left, mol)
		return !l, err
	case "=", "!=", "<", "<=", ">", ">=":
		typeName := havingType(ex)
		if typeName == "" {
			return false, fmt.Errorf("query: HAVING comparison %s references no constituent attribute", ex)
		}
		for _, st := range mol.AtomsOfType(typeName) {
			ok, err := evalBool(ex, st)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("query: unsupported HAVING expression %s", ex)
	}
}

// havingType finds the constituent type a comparison references.
func havingType(ex *Expr) string {
	if ex.Left != nil && ex.Left.Ref != nil {
		return ex.Left.Ref.Type
	}
	if ex.Right != nil && ex.Right.Ref != nil {
		return ex.Right.Ref.Type
	}
	return ""
}

// evalBool evaluates a WHERE expression against one atom state.
func evalBool(e *Expr, st *atom.State) (bool, error) {
	switch e.Op {
	case "AND":
		l, err := evalBool(e.Left, st)
		if err != nil || !l {
			return false, err
		}
		return evalBool(e.Right, st)
	case "OR":
		l, err := evalBool(e.Left, st)
		if err != nil || l {
			return l, err
		}
		return evalBool(e.Right, st)
	case "NOT":
		l, err := evalBool(e.Left, st)
		return !l, err
	case "=", "!=", "<", "<=", ">", ">=":
		l, err := evalValue(e.Left, st)
		if err != nil {
			return false, err
		}
		r, err := evalValue(e.Right, st)
		if err != nil {
			return false, err
		}
		// Comparisons involving NULL hold only for = NULL / != NULL.
		if l.IsNull() || r.IsNull() {
			switch e.Op {
			case "=":
				return l.IsNull() && r.IsNull(), nil
			case "!=":
				return l.IsNull() != r.IsNull(), nil
			default:
				return false, nil
			}
		}
		cmp := l.Compare(r)
		switch e.Op {
		case "=":
			return cmp == 0, nil
		case "!=":
			return cmp != 0, nil
		case "<":
			return cmp < 0, nil
		case "<=":
			return cmp <= 0, nil
		case ">":
			return cmp > 0, nil
		default:
			return cmp >= 0, nil
		}
	case "":
		v, err := evalValue(e, st)
		if err != nil {
			return false, err
		}
		if v.Kind() == value.KindBool {
			return v.AsBool(), nil
		}
		return false, fmt.Errorf("query: non-boolean expression %s in WHERE", e)
	default:
		return false, fmt.Errorf("query: unknown operator %q", e.Op)
	}
}

func evalValue(e *Expr, st *atom.State) (value.V, error) {
	switch {
	case e.Lit != nil:
		return *e.Lit, nil
	case e.Ref != nil:
		return attrValue(st, e.Ref.Attr)
	default:
		return value.Null, fmt.Errorf("query: expression %s is not a value", e)
	}
}
