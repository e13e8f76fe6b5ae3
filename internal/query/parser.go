package query

import (
	"fmt"
	"strconv"

	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// Parse compiles TMQL text into a Query AST (syntactic only; semantic
// checks against the schema happen in Analyze).
func Parse(src string) (*Query, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("query: unexpected %s after end of query", p.peek())
	}
	q.slots = p.slots
	return q, nil
}

type parser struct {
	tokens []token
	pos    int
	slots  []int
}

func (p *parser) peek() token { return p.tokens[p.pos] }

func (p *parser) next() token {
	t := p.tokens[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	if t := p.peek(); t.kind == tokParam {
		return token{}, fmt.Errorf("query: placeholder %s at position %d: placeholders stand only for WHERE and HAVING operands", t.text, t.pos)
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{
			tokIdent: "identifier", tokInt: "integer", tokPunct: "punctuation",
		}[kind]
	}
	return token{}, fmt.Errorf("query: expected %s, found %s at position %d", want, p.peek(), p.peek().pos)
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if p.accept(tokKeyword, "EXPLAIN") {
		q.Explain = true
		q.Analyze = p.accept(tokKeyword, "ANALYZE")
	}
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	switch {
	case p.accept(tokKeyword, "ALL"):
		q.SelectAll = true
	case p.accept(tokKeyword, "HISTORY"):
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		ref, err := p.parseAttrRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		q.History = &ref
	case p.accept(tokPunct, "("):
		for {
			proj, err := p.parseProjection()
			if err != nil {
				return nil, err
			}
			q.Projs = append(q.Projs, proj)
			if p.accept(tokPunct, ",") {
				continue
			}
			break
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("query: expected ALL, HISTORY(...) or a projection list, found %s", p.peek())
	}

	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	q.From = from.text

	// Optional clauses in any order.
	for {
		switch {
		case p.accept(tokKeyword, "WHEN"):
			if q.When != nil {
				return nil, fmt.Errorf("query: duplicate WHEN clause")
			}
			w, err := p.parseWhen()
			if err != nil {
				return nil, err
			}
			q.When = w
		case p.accept(tokKeyword, "WHERE"):
			if q.Where != nil {
				return nil, fmt.Errorf("query: duplicate WHERE clause")
			}
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			q.Where = e
		case p.accept(tokKeyword, "HAVING"):
			if q.Having != nil {
				return nil, fmt.Errorf("query: duplicate HAVING clause")
			}
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			q.Having = e
		case p.accept(tokKeyword, "AT"):
			if q.At != nil {
				return nil, fmt.Errorf("query: duplicate AT clause")
			}
			t, err := p.parseInstant()
			if err != nil {
				return nil, err
			}
			q.At = &t
		case p.accept(tokKeyword, "ASOF"):
			if q.AsOf != nil {
				return nil, fmt.Errorf("query: duplicate ASOF clause")
			}
			t, err := p.parseInstant()
			if err != nil {
				return nil, err
			}
			q.AsOf = &t
		case p.accept(tokKeyword, "DURING"):
			if q.During != nil {
				return nil, fmt.Errorf("query: duplicate DURING clause")
			}
			iv, err := p.parsePeriod()
			if err != nil {
				return nil, err
			}
			q.During = &iv
		case p.accept(tokKeyword, "ORDER"):
			if q.OrderBy != "" {
				return nil, fmt.Errorf("query: duplicate ORDER BY clause")
			}
			if _, err := p.expect(tokKeyword, "BY"); err != nil {
				return nil, err
			}
			ref, err := p.parseAttrRef()
			if err != nil {
				return nil, err
			}
			q.OrderBy = ref.String()
			if p.accept(tokKeyword, "DESC") {
				q.OrderDesc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
		case p.accept(tokKeyword, "LIMIT"):
			if q.Limit != 0 {
				return nil, fmt.Errorf("query: duplicate LIMIT clause")
			}
			n, err := p.expect(tokInt, "")
			if err != nil {
				return nil, err
			}
			limit, err := strconv.Atoi(n.text)
			if err != nil || limit <= 0 {
				return nil, fmt.Errorf("query: LIMIT wants a positive integer, got %q", n.text)
			}
			q.Limit = limit
		default:
			return q, nil
		}
	}
}

func (p *parser) parseProjection() (Projection, error) {
	for _, agg := range []string{"TAVG", "TMIN", "TMAX", "CHANGES"} {
		if p.accept(tokKeyword, agg) {
			if _, err := p.expect(tokPunct, "("); err != nil {
				return Projection{}, err
			}
			ref, err := p.parseAttrRef()
			if err != nil {
				return Projection{}, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return Projection{}, err
			}
			return Projection{Attr: &ref, Agg: agg}, nil
		}
	}
	if p.accept(tokKeyword, "COUNT") {
		if _, err := p.expect(tokPunct, "("); err != nil {
			return Projection{}, err
		}
		t, err := p.expect(tokIdent, "")
		if err != nil {
			return Projection{}, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return Projection{}, err
		}
		return Projection{Count: t.text}, nil
	}
	ref, err := p.parseAttrRef()
	if err != nil {
		return Projection{}, err
	}
	return Projection{Attr: &ref}, nil
}

// parseAttrRef parses `attr` or `Type.attr`.
func (p *parser) parseAttrRef() (AttrRef, error) {
	first, err := p.expect(tokIdent, "")
	if err != nil {
		return AttrRef{}, err
	}
	if p.accept(tokPunct, ".") {
		second, err := p.expect(tokIdent, "")
		if err != nil {
			return AttrRef{}, err
		}
		return AttrRef{Type: first.text, Attr: second.text}, nil
	}
	return AttrRef{Attr: first.text}, nil
}

func (p *parser) parseWhen() (*WhenClause, error) {
	w := &WhenClause{}
	switch {
	case p.accept(tokKeyword, "VALID"):
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		ref, err := p.parseAttrRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		w.Attr = ref
	case p.accept(tokKeyword, "LIFESPAN"):
		w.Lifespan = true
	default:
		return nil, fmt.Errorf("query: WHEN expects VALID(attr) or LIFESPAN, found %s at position %d", p.peek(), p.peek().pos)
	}
	pred, err := p.parsePred()
	if err != nil {
		return nil, err
	}
	w.Pred = pred
	if _, err := p.expect(tokKeyword, "PERIOD"); err != nil {
		return nil, err
	}
	iv, err := p.parsePeriod()
	if err != nil {
		return nil, err
	}
	w.Period = iv
	return w, nil
}

func (p *parser) parsePred() (TemporalPred, error) {
	for pred, name := range predNames {
		if p.accept(tokKeyword, name) {
			return TemporalPred(pred), nil
		}
	}
	return 0, fmt.Errorf("query: expected a temporal predicate (OVERLAPS, CONTAINS, DURING, PRECEDES, MEETS, EQUALS), found %s at position %d", p.peek(), p.peek().pos)
}

// parsePeriod parses `[ a , b )`.
func (p *parser) parsePeriod() (temporal.Interval, error) {
	if _, err := p.expect(tokPunct, "["); err != nil {
		return temporal.Interval{}, err
	}
	from, err := p.parseInstant()
	if err != nil {
		return temporal.Interval{}, err
	}
	if _, err := p.expect(tokPunct, ","); err != nil {
		return temporal.Interval{}, err
	}
	to, err := p.parseInstant()
	if err != nil {
		return temporal.Interval{}, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return temporal.Interval{}, err
	}
	if from > to {
		return temporal.Interval{}, fmt.Errorf("query: inverted period [%v, %v)", from, to)
	}
	return temporal.Interval{From: from, To: to}, nil
}

func (p *parser) parseInstant() (temporal.Instant, error) {
	if p.accept(tokKeyword, "FOREVER") {
		return temporal.Forever, nil
	}
	t, err := p.expect(tokInt, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query: bad instant %q: %w", t.text, err)
	}
	return temporal.Instant(n), nil
}

// Expression grammar: or := and {OR and}; and := not {AND not};
// not := [NOT] cmp; cmp := operand [op operand] | '(' or ')'.
func (p *parser) parseOr() (*Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Expr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (*Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Expr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (*Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Expr{Op: "NOT", Left: inner}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (*Expr, error) {
	if p.accept(tokPunct, "(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.at(tokOp, "") {
		op := p.next().text
		right, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &Expr{Op: op, Left: left, Right: right}, nil
	}
	return left, nil
}

func (p *parser) parseOperand() (*Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokIdent:
		ref, err := p.parseAttrRef()
		if err != nil {
			return nil, err
		}
		return &Expr{Ref: &ref}, nil
	case t.kind == tokInt:
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("query: bad integer %q", t.text)
		}
		v := value.Int(n)
		return &Expr{Lit: &v}, nil
	case t.kind == tokFloat:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("query: bad float %q", t.text)
		}
		v := value.Float(f)
		return &Expr{Lit: &v}, nil
	case t.kind == tokString:
		p.next()
		v := value.String_(t.text)
		return &Expr{Lit: &v}, nil
	case t.kind == tokParam:
		p.next()
		n, err := strconv.Atoi(t.text[1:])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("query: placeholder %s out of range", t.text)
		}
		p.slots = append(p.slots, n)
		return &Expr{Param: n}, nil
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		v := value.Bool(true)
		return &Expr{Lit: &v}, nil
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		v := value.Bool(false)
		return &Expr{Lit: &v}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.next()
		v := value.Null
		return &Expr{Lit: &v}, nil
	default:
		return nil, fmt.Errorf("query: expected an operand, found %s at position %d", t, t.pos)
	}
}
