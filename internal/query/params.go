package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tcodm/internal/value"
)

// bind fills the $n slots of the template a with params (1-based) and
// returns the plan to execute. Every parameter must be referenced at least
// once and every reference must have a parameter. The template is shared
// and stays unwritten: the copy shares everything but the Query header and
// the WHERE/HAVING nodes on the path to a slot, so the executor, EXPLAIN
// and the plan string see ordinary literals. A template without slots is
// returned as is.
func bind(a *Analyzed, params []value.V) (*Analyzed, error) {
	slots := a.Query.slots
	used := make([]bool, len(params))
	for _, n := range slots {
		if n > len(params) {
			return nil, fmt.Errorf("query: placeholder $%d out of range (have %d parameters)", n, len(params))
		}
		if err := checkParam(params[n-1]); err != nil {
			return nil, fmt.Errorf("query: parameter $%d: %w", n, err)
		}
		used[n-1] = true
	}
	for i, u := range used {
		if !u {
			return nil, fmt.Errorf("query: parameter $%d is never referenced", i+1)
		}
	}
	if len(slots) == 0 {
		return a, nil
	}
	// One allocation holds both copies.
	b := &struct {
		a Analyzed
		q Query
	}{*a, *a.Query}
	b.a.Query = &b.q
	b.q.Where = bindExpr(b.q.Where, params)
	b.q.Having = bindExpr(b.q.Having, params)
	return &b.a, nil
}

// bindExpr returns e with its slots filled, copying only the nodes on the
// path to a slot.
func bindExpr(e *Expr, params []value.V) *Expr {
	switch {
	case e == nil || e.Ref != nil || e.Lit != nil:
		return e
	case e.Param != 0:
		v := params[e.Param-1]
		if v.Kind() == value.KindInstant {
			// An instant has no literal of its own: it binds as the
			// integer the textual path has always produced.
			v = value.Int(int64(v.AsInstant()))
		}
		return &Expr{Lit: &v}
	}
	l, r := bindExpr(e.Left, params), bindExpr(e.Right, params)
	if l == e.Left && r == e.Right {
		return e
	}
	c := *e
	c.Left, c.Right = l, r
	return &c
}

// checkParam refuses the values no TMQL literal could have written.
func checkParam(v value.V) error {
	if v.Kind() == value.KindFloat {
		if f := v.AsFloat(); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("float %v has no TMQL literal syntax", f)
		}
	}
	return nil
}

// Bind substitutes $1..$n placeholders in src with the TMQL literal
// rendering of params (1-based), the textual form of what the engine binds
// into a statement's plan. Placeholders inside string literals are left
// untouched. Every parameter must be referenced at least once and every
// reference must have a parameter; violations are errors, as are values
// with no literal syntax (surrogate IDs, NaN/Inf floats). The result lexes
// exactly as if the literals had been typed; the slow-query log records
// it, and tests hold plan binding to it.
func Bind(src string, params []value.V) (string, error) {
	var sb strings.Builder
	sb.Grow(len(src) + 16*len(params))
	used := make([]bool, len(params))
	inString := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inString {
			sb.WriteByte(c)
			switch c {
			case '\\':
				// Copy the escaped byte verbatim so an escaped quote does
				// not end the literal.
				if i+1 < len(src) {
					i++
					sb.WriteByte(src[i])
				}
			case '"':
				inString = false
			}
			continue
		}
		switch {
		case c == '"':
			inString = true
			sb.WriteByte(c)
		case c == '$':
			j := i + 1
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			if j == i+1 {
				return "", fmt.Errorf("query: stray '$' at position %d (placeholders are $1..$%d)", i, len(params))
			}
			n, err := strconv.Atoi(src[i+1 : j])
			if err != nil || n < 1 || n > len(params) {
				return "", fmt.Errorf("query: placeholder %s out of range (have %d parameters)", src[i:j], len(params))
			}
			lit, err := renderLiteral(params[n-1])
			if err != nil {
				return "", fmt.Errorf("query: parameter $%d: %w", n, err)
			}
			used[n-1] = true
			sb.WriteString(lit)
			i = j - 1
		default:
			sb.WriteByte(c)
		}
	}
	for i, u := range used {
		if !u {
			return "", fmt.Errorf("query: parameter $%d is never referenced", i+1)
		}
	}
	return sb.String(), nil
}

// renderLiteral writes v in TMQL literal syntax.
func renderLiteral(v value.V) (string, error) {
	switch v.Kind() {
	case value.KindNull:
		return "NULL", nil
	case value.KindBool:
		if v.AsBool() {
			return "TRUE", nil
		}
		return "FALSE", nil
	case value.KindInt:
		return strconv.FormatInt(v.AsInt(), 10), nil
	case value.KindInstant:
		return strconv.FormatInt(int64(v.AsInstant()), 10), nil
	case value.KindFloat:
		if err := checkParam(v); err != nil {
			return "", err
		}
		f := v.AsFloat()
		// 'f' (never 'e'): the TMQL lexer has no exponent syntax.
		s := strconv.FormatFloat(f, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0" // keep the token a float so value kinds survive the round trip
		}
		return s, nil
	case value.KindString:
		return quoteTMQL(v.AsString()), nil
	default:
		return "", fmt.Errorf("%s values have no TMQL literal syntax", v.Kind())
	}
}

// quoteTMQL quotes s using the lexer's escape set.
func quoteTMQL(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}
