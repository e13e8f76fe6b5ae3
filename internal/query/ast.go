package query

import (
	"fmt"
	"strconv"
	"strings"

	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Query is the parsed form of a TMQL statement.
type Query struct {
	// Explain requests the query plan instead of the result; with Analyze
	// the query also runs and the plan carries actual row counts and times.
	Explain bool
	Analyze bool

	// Select is exactly one of: SelectAll, History != nil, or Projs.
	SelectAll bool
	History   *AttrRef // SELECT HISTORY(T.attr)
	Projs     []Projection

	From string // atom type or molecule type name

	Where *Expr // optional boolean predicate

	When *WhenClause // optional temporal selection

	// At is the valid-time slice instant (nil = the clock's now).
	At *temporal.Instant
	// AsOf is the transaction-time instant (nil = latest state).
	AsOf *temporal.Instant
	// During is the valid window for HISTORY queries (nil = all time).
	During *temporal.Interval
	// OrderBy names the output column to sort rows by ("" = storage order);
	// OrderDesc flips the direction.
	OrderBy   string
	OrderDesc bool
	// Limit caps the number of rows/molecules (0 = unlimited).
	Limit int
	// Having qualifies molecules by their constituents: the molecule is
	// kept iff some constituent atom satisfies the predicate (an
	// existential qualification over the complex object).
	Having *Expr

	// slots lists the $n placeholders of WHERE and HAVING in text order.
	slots []int
}

// Projection is one output column: an attribute reference, COUNT(Type)
// over a molecule, or a temporal aggregate over an attribute history
// (TAVG: duration-weighted average; TMIN/TMAX: extrema over time; CHANGES:
// number of value transitions) evaluated within the DURING window.
type Projection struct {
	Attr  *AttrRef
	Count string // COUNT(Count) when non-empty
	Agg   string // "TAVG", "TMIN", "TMAX", "CHANGES" when non-empty
}

// Label renders the column heading.
func (p Projection) Label() string {
	if p.Count != "" {
		return "count(" + p.Count + ")"
	}
	if p.Agg != "" {
		return strings.ToLower(p.Agg) + "(" + p.Attr.String() + ")"
	}
	return p.Attr.String()
}

// AttrRef names an attribute, optionally qualified by its atom type.
type AttrRef struct {
	Type string // empty = the FROM type (atom-type queries only)
	Attr string
}

func (a AttrRef) String() string {
	if a.Type == "" {
		return a.Attr
	}
	return a.Type + "." + a.Attr
}

// WhenClause is a temporal selection: the attribute's valid history must
// contain a version whose interval stands in Pred relation to Period.
type WhenClause struct {
	Attr     AttrRef // VALID(T.attr); Attr=="" with Lifespan=true selects on the atom's lifespan
	Lifespan bool
	Pred     TemporalPred
	Period   temporal.Interval
}

// TemporalPred enumerates the WHEN predicates.
type TemporalPred uint8

const (
	// PredOverlaps: version interval shares an instant with the period.
	PredOverlaps TemporalPred = iota
	// PredContains: version interval contains the whole period.
	PredContains
	// PredDuring: version interval lies within the period.
	PredDuring
	// PredPrecedes: version interval ends at or before the period starts.
	PredPrecedes
	// PredMeets: version interval ends exactly where the period starts.
	PredMeets
	// PredEquals: version interval equals the period.
	PredEquals
)

var predNames = [...]string{"OVERLAPS", "CONTAINS", "DURING", "PRECEDES", "MEETS", "EQUALS"}

// String returns the predicate keyword.
func (p TemporalPred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return "?"
}

// Holds evaluates the predicate of iv against the period.
func (p TemporalPred) Holds(iv, period temporal.Interval) bool {
	switch p {
	case PredOverlaps:
		return iv.Overlaps(period)
	case PredContains:
		return iv.ContainsInterval(period) && !period.IsEmpty()
	case PredDuring:
		return period.ContainsInterval(iv) && !iv.IsEmpty()
	case PredPrecedes:
		return iv.Before(period)
	case PredMeets:
		return !iv.IsEmpty() && iv.To == period.From
	case PredEquals:
		return iv.Equal(period) && !iv.IsEmpty()
	default:
		return false
	}
}

// Expr is a boolean/comparison expression tree.
type Expr struct {
	// Exactly one of the following shapes:
	Op    string // "AND", "OR", "NOT", "=", "!=", "<", "<=", ">", ">="
	Left  *Expr
	Right *Expr // nil for NOT

	// Leaf forms:
	Ref   *AttrRef // attribute reference
	Lit   *value.V // literal
	Param int      // parameter slot $Param (1-based); binding replaces it with a literal
}

func (e *Expr) String() string {
	switch {
	case e == nil:
		return ""
	case e.Ref != nil:
		return e.Ref.String()
	case e.Lit != nil:
		return e.Lit.String()
	case e.Param != 0:
		return "$" + strconv.Itoa(e.Param)
	case e.Op == "NOT":
		return "NOT (" + e.Left.String() + ")"
	default:
		return "(" + e.Left.String() + " " + e.Op + " " + e.Right.String() + ")"
	}
}

// String renders the query back to (normalized) TMQL.
func (q *Query) String() string {
	var sb strings.Builder
	if q.Explain {
		sb.WriteString("EXPLAIN ")
		if q.Analyze {
			sb.WriteString("ANALYZE ")
		}
	}
	sb.WriteString("SELECT ")
	switch {
	case q.SelectAll:
		sb.WriteString("ALL")
	case q.History != nil:
		fmt.Fprintf(&sb, "HISTORY(%s)", q.History)
	default:
		parts := make([]string, len(q.Projs))
		for i, p := range q.Projs {
			parts[i] = p.Label()
		}
		sb.WriteString("(" + strings.Join(parts, ", ") + ")")
	}
	sb.WriteString(" FROM " + q.From)
	if q.When != nil {
		if q.When.Lifespan {
			fmt.Fprintf(&sb, " WHEN LIFESPAN %s PERIOD %s", q.When.Pred, q.When.Period)
		} else {
			fmt.Fprintf(&sb, " WHEN VALID(%s) %s PERIOD %s", q.When.Attr, q.When.Pred, q.When.Period)
		}
	}
	if q.Where != nil {
		sb.WriteString(" WHERE " + q.Where.String())
	}
	if q.Having != nil {
		sb.WriteString(" HAVING " + q.Having.String())
	}
	if q.During != nil {
		fmt.Fprintf(&sb, " DURING %s", *q.During)
	}
	if q.At != nil {
		fmt.Fprintf(&sb, " AT %v", *q.At)
	}
	if q.AsOf != nil {
		fmt.Fprintf(&sb, " ASOF %v", *q.AsOf)
	}
	if q.OrderBy != "" {
		fmt.Fprintf(&sb, " ORDER BY %s", q.OrderBy)
		if q.OrderDesc {
			sb.WriteString(" DESC")
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}
