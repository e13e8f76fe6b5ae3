// Package query implements TMQL, the temporal molecule query language: a
// small declarative language over the temporal complex-object model with
// time-slice (AT), transaction-time (ASOF), temporal-selection (WHEN ...
// PERIOD), and history (HISTORY ... DURING) constructs, compiled onto the
// atom and molecule layers.
//
// Examples:
//
//	SELECT ALL FROM Design WHERE name = "engine" AT 150
//	SELECT (Emp.name, Emp.salary) FROM Emp WHERE Emp.salary > 4000
//	SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT 100
//	SELECT (Emp.name) FROM Emp WHEN VALID(Emp.salary) OVERLAPS PERIOD [10, 20)
//	SELECT HISTORY(Emp.salary) FROM Emp DURING [0, 100)
//	SELECT (Emp.name, TAVG(Emp.salary)) FROM Emp DURING [0, 100)
package query

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokPunct // ( ) [ , . )
	tokOp    // = != < <= > >=
	tokParam // $1, $2, ...: a parameter slot
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"SELECT": true, "ALL": true, "FROM": true, "WHERE": true, "WHEN": true,
	"AT": true, "ASOF": true, "PERIOD": true, "DURING": true, "HISTORY": true,
	"VALID": true, "AND": true, "OR": true, "NOT": true, "COUNT": true,
	"OVERLAPS": true, "CONTAINS": true, "PRECEDES": true, "MEETS": true,
	"EQUALS": true, "TRUE": true, "FALSE": true, "NULL": true, "FOREVER": true,
	"LIFESPAN": true, "TAVG": true, "TMIN": true, "TMAX": true, "CHANGES": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true, "LIMIT": true,
	"HAVING": true, "EXPLAIN": true, "ANALYZE": true,
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

// lex tokenizes the query text.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexWord(start)
		case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			if err := l.lexNumber(start); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		case c == '$':
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			if l.pos == start+1 {
				return nil, fmt.Errorf("query: stray '$' at position %d (placeholders are $1, $2, ...)", start)
			}
			l.tokens = append(l.tokens, token{kind: tokParam, text: l.src[start:l.pos], pos: start})
		case strings.ContainsRune("()[],.", rune(c)):
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokPunct, text: string(c), pos: start})
		case c == '=':
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokOp, text: "=", pos: start})
		case c == '!':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.pos += 2
				l.tokens = append(l.tokens, token{kind: tokOp, text: "!=", pos: start})
				continue
			}
			return nil, fmt.Errorf("query: unexpected '!' at position %d", start)
		case c == '<' || c == '>':
			op := string(c)
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				op += "="
				l.pos++
			}
			l.tokens = append(l.tokens, token{kind: tokOp, text: op, pos: start})
		default:
			return nil, fmt.Errorf("query: unexpected character %q at position %d", c, start)
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '@'
}

func (l *lexer) lexWord(start int) {
	for l.pos < len(l.src) && (isIdentStart(rune(l.src[l.pos])) || unicode.IsDigit(rune(l.src[l.pos]))) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if keywords[strings.ToUpper(text)] {
		l.tokens = append(l.tokens, token{kind: tokKeyword, text: strings.ToUpper(text), pos: start})
		return
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: text, pos: start})
}

func (l *lexer) lexNumber(start int) error {
	if l.src[l.pos] == '-' {
		l.pos++
	}
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsDigit(rune(c)) {
			l.pos++
			continue
		}
		// A '.' is part of the number only when followed by a digit
		// (distinguishes 3.5 from the path separator in Emp.salary).
		if c == '.' && !isFloat && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) {
			isFloat = true
			l.pos++
			continue
		}
		break
	}
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	l.tokens = append(l.tokens, token{kind: kind, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) lexString(start int) error {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return fmt.Errorf("query: unterminated escape at position %d", l.pos)
			}
			l.pos++
			switch e := l.src[l.pos]; e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"', '\\':
				sb.WriteByte(e)
			default:
				return fmt.Errorf("query: unknown escape \\%c at position %d", e, l.pos)
			}
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return fmt.Errorf("query: unterminated string starting at position %d", start)
}
