package query

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tcodm/internal/obs"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// PlanNode is one operator in an execution plan tree. Children are the
// operator's inputs (the leaf is the access path). When Analyzed is set the
// node carries actual row counts and accumulated wall time from a real
// execution (EXPLAIN ANALYZE); otherwise the node only describes the plan.
type PlanNode struct {
	Name     string        // operator, e.g. "scan", "filter: WHERE", "materialize"
	Detail   string        // operator argument, e.g. the access path or predicate
	Rows     int64         // rows/items produced (valid when Analyzed)
	Dur      time.Duration // wall time attributed to this operator (valid when Analyzed)
	Analyzed bool
	Children []*PlanNode
}

// String renders the tree in the conventional indented form.
func (n *PlanNode) String() string {
	var sb strings.Builder
	n.render(&sb, 0)
	return sb.String()
}

func (n *PlanNode) render(sb *strings.Builder, depth int) {
	if depth > 0 {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString("-> ")
	}
	sb.WriteString(n.Name)
	if n.Detail != "" {
		sb.WriteString(" (" + n.Detail + ")")
	}
	if n.Analyzed {
		fmt.Fprintf(sb, "  [rows=%d time=%s]", n.Rows, n.Dur.Round(time.Microsecond))
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		c.render(sb, depth+1)
	}
}

// execCtx accumulates per-operator row counts and (when analyze is set)
// wall-time while a query executes. Counters are plain int64: one query
// runs on one goroutine. The zero value (analyze=false) costs a handful of
// increments per candidate — cheap enough to keep on unconditionally.
type execCtx struct {
	analyze bool

	// timed enables per-stage wall-clock measurement without the full
	// EXPLAIN ANALYZE machinery — set when the query runs under an active
	// trace so operator spans carry real durations.
	timed bool

	// ctx carries the caller's cancellation; nil means "never cancelled".
	ctx        context.Context
	cancelTick uint32

	// res accumulates the query's exact resource totals: every storage,
	// WAL, and atom-layer read on this execution context charges here.
	// Workers keep private totals that merge() sums, so serial and
	// parallel runs report identical numbers by construction.
	res obs.Resources

	scanDesc string // access-path description from candidates()
	scanned  int64  // candidate ids produced by the access path

	whenOut int64 // candidates surviving the WHEN filter
	whenDur time.Duration

	sliceOut int64 // states alive at the slice point (or loaded, with WHEN)
	sliceDur time.Duration

	whereOut int64 // states surviving the WHERE filter
	whereDur time.Duration

	emitOut int64 // rows/molecules produced by the class-specific stage
	emitDur time.Duration

	havingOut int64 // molecules surviving HAVING (molecule class only)
	matCount  int64 // molecules materialized (molecule class only)

	totalDur time.Duration

	// Parallel-execution telemetry. workers is non-nil iff runParallel
	// drove this query (possibly with zero entries when there were no
	// candidates); planWorkers is the configured fan-out, shown by plain
	// EXPLAIN where nothing executes.
	workers     []workerStat
	chunks      int
	planWorkers int
}

// merge folds a worker's counters into the parent context — the merge-time
// aggregation that keeps EXPLAIN ANALYZE row counts exact under
// parallelism (private counters per worker, no shared-counter races).
func (c *execCtx) merge(w *execCtx) {
	if w == nil {
		return
	}
	c.scanned += w.scanned
	c.whenOut += w.whenOut
	c.whenDur += w.whenDur
	c.sliceOut += w.sliceOut
	c.sliceDur += w.sliceDur
	c.whereOut += w.whereOut
	c.whereDur += w.whereDur
	c.emitOut += w.emitOut
	c.emitDur += w.emitDur
	c.havingOut += w.havingOut
	c.matCount += w.matCount
	c.res.Add(w.res)
}

// checkCancel polls the caller's context at operator-loop boundaries.
// Polling every candidate would put a lock acquisition (ctx.Err) on the
// per-row path, so it samples every 64 candidates — bounded staleness at
// negligible cost.
func (c *execCtx) checkCancel() error {
	if c.ctx == nil {
		return nil
	}
	c.cancelTick++
	if c.cancelTick&63 != 0 {
		return nil
	}
	return c.ctx.Err()
}

// cancelErr reports the context's error unconditionally (used before
// expensive per-candidate stages like molecule materialization).
func (c *execCtx) cancelErr() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// now returns the current time only when profiling; the zero Time means
// "don't measure" and makes the paired since() a no-op.
func (c *execCtx) now() time.Time {
	if c == nil || (!c.analyze && !c.timed) {
		return time.Time{}
	}
	return time.Now()
}

func since(start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// describeScan predicts the access path candidates() would choose, without
// executing anything. It must mirror candidates() branch for branch.
func (e *Engine) describeScan(a *Analyzed, typeName string) string {
	q := a.Query
	if q.When != nil && !q.When.Lifespan && e.Mgr.HasTimeIndex() {
		if bound, ok := whenStartBound(q.When); ok {
			return fmt.Sprintf("time-index scan on %s below %v", q.When.Attr, bound)
		}
	}
	if q.When == nil && e.Mgr.HasValueIndex() {
		if pred := sargable(q.Where, baseType(a)); pred != nil {
			return fmt.Sprintf("value-index scan on %s.%s %s %s", typeName, pred.attr, pred.op, pred.lit)
		}
	}
	return "full type scan on " + typeName
}

// buildPlanTree assembles the operator tree for an analyzed query. With a
// populated ctx (post-execution) the nodes carry actual counts and times;
// with ctx.analyze unset they only describe the plan shape.
func buildPlanTree(a *Analyzed, vt, tt temporal.Instant, ctx *execCtx, res *Result) *PlanNode {
	q := a.Query
	analyzed := ctx.analyze

	// Leaf: the access path.
	node := &PlanNode{
		Name: "scan", Detail: ctx.scanDesc,
		Rows: ctx.scanned, Analyzed: analyzed,
	}

	// Parallel execution inserts a gather node above the scan: the scan
	// (candidate collection) is serial, everything downstream fans out, and
	// the gather's worker children carry per-worker rows and wall time.
	if ctx.workers != nil || ctx.planWorkers > 1 {
		g := &PlanNode{
			Name: "gather", Rows: ctx.scanned, Analyzed: analyzed,
			Children: []*PlanNode{node},
		}
		if ctx.workers == nil {
			g.Detail = fmt.Sprintf("workers=%d", ctx.planWorkers)
		} else {
			g.Detail = fmt.Sprintf("workers=%d chunks=%d", len(ctx.workers), ctx.chunks)
			for i, ws := range ctx.workers {
				g.Children = append(g.Children, &PlanNode{
					Name:   fmt.Sprintf("worker %d", i),
					Detail: fmt.Sprintf("chunks=%d cands=%d", ws.chunks, ws.cands),
					Rows:   ws.rows, Dur: ws.dur, Analyzed: analyzed,
				})
			}
		}
		node = g
	}

	if q.When != nil {
		w := q.When
		detail := ""
		if w.Lifespan {
			detail = fmt.Sprintf("WHEN LIFESPAN %s PERIOD %s", w.Pred, w.Period)
		} else {
			detail = fmt.Sprintf("WHEN VALID(%s) %s PERIOD %s", w.Attr, w.Pred, w.Period)
		}
		node = &PlanNode{
			Name: "filter", Detail: detail,
			Rows: ctx.whenOut, Dur: ctx.whenDur, Analyzed: analyzed,
			Children: []*PlanNode{node},
		}
	}

	ttDesc := "now"
	if q.AsOf != nil {
		ttDesc = fmt.Sprint(tt)
	}
	node = &PlanNode{
		Name: "time-slice", Detail: fmt.Sprintf("vt=%v tt=%s", vt, ttDesc),
		Rows: ctx.sliceOut, Dur: ctx.sliceDur, Analyzed: analyzed,
		Children: []*PlanNode{node},
	}

	if q.Where != nil {
		node = &PlanNode{
			Name: "filter", Detail: "WHERE " + q.Where.String(),
			Rows: ctx.whereOut, Dur: ctx.whereDur, Analyzed: analyzed,
			Children: []*PlanNode{node},
		}
	}

	switch a.Class {
	case ClassMolecule:
		node = &PlanNode{
			Name: "materialize", Detail: "molecule " + a.MolType.Name,
			Rows: ctx.matCount, Dur: ctx.emitDur, Analyzed: analyzed,
			Children: []*PlanNode{node},
		}
		if q.Having != nil {
			node = &PlanNode{
				Name: "filter", Detail: "HAVING " + q.Having.String(),
				Rows: ctx.havingOut, Analyzed: analyzed,
				Children: []*PlanNode{node},
			}
		}
		if q.SelectAll {
			node = &PlanNode{
				Name: "collect", Detail: "ALL molecules",
				Rows: ctx.emitOut, Analyzed: analyzed,
				Children: []*PlanNode{node},
			}
		} else {
			node = &PlanNode{
				Name: "project", Detail: projListDetail(q),
				Rows: ctx.emitOut, Analyzed: analyzed,
				Children: []*PlanNode{node},
			}
		}
	case ClassHistory:
		detail := "HISTORY(" + q.History.String() + ")"
		if q.During != nil {
			detail += fmt.Sprintf(" DURING %s", *q.During)
		}
		node = &PlanNode{
			Name: "history-expand", Detail: detail,
			Rows: ctx.emitOut, Dur: ctx.emitDur, Analyzed: analyzed,
			Children: []*PlanNode{node},
		}
	default: // ClassAtom
		node = &PlanNode{
			Name: "project", Detail: projListDetail(q),
			Rows: ctx.emitOut, Dur: ctx.emitDur, Analyzed: analyzed,
			Children: []*PlanNode{node},
		}
	}

	if q.OrderBy != "" || q.Limit > 0 {
		detail := ""
		if q.OrderBy != "" {
			detail = "ORDER BY " + q.OrderBy
			if q.OrderDesc {
				detail += " DESC"
			}
		}
		if q.Limit > 0 {
			if detail != "" {
				detail += " "
			}
			detail += fmt.Sprintf("LIMIT %d", q.Limit)
		}
		rows := int64(0)
		if res != nil {
			rows = int64(len(res.Rows) + len(res.Molecules))
		}
		node = &PlanNode{
			Name: "order/limit", Detail: detail,
			Rows: rows, Analyzed: analyzed,
			Children: []*PlanNode{node},
		}
	}

	root := &PlanNode{
		Name: "query", Detail: className(a.Class),
		Dur: ctx.totalDur, Analyzed: analyzed,
		Children: []*PlanNode{node},
	}
	if res != nil {
		root.Rows = int64(len(res.Rows) + len(res.Molecules))
	}
	if analyzed && ctx.res.Arc > 0 {
		// Cold-archive traffic only shows up when it happened, so plans for
		// purely-hot queries render exactly as before tiering existed.
		root.Children = append(root.Children, &PlanNode{
			Name: "archive", Detail: fmt.Sprintf("cold blocks read=%d", ctx.res.Arc),
			Rows: int64(ctx.res.Arc), Analyzed: analyzed,
		})
	}
	return root
}

func projListDetail(q *Query) string {
	parts := make([]string, len(q.Projs))
	for i, p := range q.Projs {
		parts[i] = p.Label()
	}
	return strings.Join(parts, ", ")
}

func className(c QueryClass) string {
	switch c {
	case ClassAtom:
		return "atom"
	case ClassHistory:
		return "history"
	case ClassMolecule:
		return "molecule"
	default:
		return "?"
	}
}

// planResult wraps a plan tree as a one-column result, one row per line.
func planResult(tree *PlanNode) *Result {
	res := &Result{Columns: []string{"QUERY PLAN"}, ExplainTree: tree, Plan: tree.String()}
	for _, line := range strings.Split(strings.TrimRight(tree.String(), "\n"), "\n") {
		res.Rows = append(res.Rows, []value.V{value.String_(line)})
	}
	return res
}

// explain handles EXPLAIN and EXPLAIN ANALYZE for an analyzed query.
func (e *Engine) explain(cctx context.Context, a *Analyzed, def Defaults) (*Result, error) {
	q := a.Query
	vt := def.VT
	if q.At != nil {
		vt = *q.At
	}
	tt := def.tt()
	if q.AsOf != nil {
		tt = *q.AsOf
	}
	if !q.Analyze {
		// Describe only — nothing executes.
		ctx := &execCtx{scanDesc: e.describeScan(a, baseType(a).Name), planWorkers: e.Workers}
		return planResult(buildPlanTree(a, vt, tt, ctx, nil)), nil
	}
	ctx := &execCtx{analyze: true, ctx: cctx}
	start := time.Now()
	res, err := e.executeClass(a, vt, tt, ctx)
	if err != nil {
		return nil, err
	}
	applyOrderLimit(a, res)
	ctx.totalDur = time.Since(start)
	out := planResult(buildPlanTree(a, vt, tt, ctx, res))
	out.Res = ctx.res
	out.Trace = def.Trace
	if e.tracer != nil && def.Trace != 0 {
		e.emitTrace(a, def, ctx, start, ctx.totalDur)
		// Stamp the trace id as a trailing plan line so EXPLAIN ANALYZE
		// output correlates with /debug/trace. Untraced runs are untouched,
		// keeping existing plan goldens byte-identical.
		out.Rows = append(out.Rows, []value.V{value.String_(fmt.Sprintf("trace: %d", def.Trace))})
	}
	return out, nil
}
