// Package sqlparse parses the SQL subset the engine supports into logical
// queries, resolving names against a schema:
//
//	SELECT <* | agg[, agg...]> FROM t1[, t2...]
//	[WHERE cond [AND cond ...]]
//	[GROUP BY col[, col...]] [;]
//
// where agg is COUNT(*) or SUM/AVG/MIN/MAX(table.column), and cond is
// either an equi-join "a.x = b.y" or a comparison "a.x <op> literal" with a
// numeric literal. Column references may drop the table qualifier when the
// column name is unambiguous across the FROM tables. Keywords are
// case-insensitive.
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
)

// tokenKind enumerates lexical token kinds.
type tokenKind int

const (
	tokIdent tokenKind = iota
	tokNumber
	tokSymbol // ( ) , . * ;
	tokOp     // = < <= > >= <>
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}
func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }

// lex tokenizes the input. Identifiers are lowercased (our schemas are
// lowercase); keywords are recognized later by text. The input is read as
// bytes and classified with ASCII predicates — the dialect and every
// schema name are ASCII, and the white space is exactly what
// costmodel.Fingerprint collapses, so a statement that parses has a
// fingerprint that is valid UTF-8. Any byte >= 0x80 is an error.
func lex(input string) ([]token, error) {
	// One token per ~4 bytes of generated SQL; append covers denser input.
	toks := make([]token, 0, len(input)/3+2)
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case isSpace(c):
			i++
		case isLetter(c) || c == '_':
			start := i
			for i < len(input) && (isLetter(input[i]) || isDigit(input[i]) || input[i] == '_') {
				i++
			}
			toks = append(toks, token{tokIdent, strings.ToLower(input[start:i]), start})
		case isDigit(c) || c == '-' && i+1 < len(input) && isDigit(input[i+1]):
			start := i
			i++
			// A signed exponent accepts both marks: strconv renders large
			// values as "1e+26", and rendered queries must re-parse (the
			// plan cache joins feedback by re-parsing rendered SQL).
			for i < len(input) && (isDigit(input[i]) || input[i] == '.' || input[i] == 'e' ||
				input[i] == 'E' ||
				((input[i] == '-' || input[i] == '+') && (input[i-1] == 'e' || input[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '<':
			if i+1 < len(input) && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, token{tokOp, input[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, "<", i})
				i++
			}
		case c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokOp, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, ">", i})
				i++
			}
		case c == '!':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokOp, "<>", i})
				i += 2
			} else {
				return nil, fmt.Errorf("sqlparse: unexpected '!' at %d", i)
			}
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case strings.IndexByte("(),.*;", c) >= 0:
			toks = append(toks, token{tokSymbol, input[i : i+1], i})
			i++
		case c >= 0x80:
			// Name the byte, not the Latin-1 code point it would be.
			return nil, fmt.Errorf("sqlparse: unexpected character %q at %d", input[i:i+1], i)
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
	sch  *schema.Schema
	q    *query.Query
	// selectItems holds the select list before name resolution: the select
	// list is parsed before FROM, so unqualified columns resolve only
	// after the tables are known.
	selectItems []selectItem
}

// selectItem is one unresolved select-list entry.
type selectItem struct {
	fn     query.AggFunc
	star   bool
	table  string // may be empty (unqualified)
	column string
	pos    int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != kw {
		return fmt.Errorf("sqlparse: expected %s at %d, got %q", strings.ToUpper(kw), t.pos, t.text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("sqlparse: expected %q at %d, got %q", sym, t.pos, t.text)
	}
	return nil
}

// Parse parses sql into a validated logical query against the schema.
func Parse(sql string, sch *schema.Schema) (*query.Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, sch: sch, q: &query.Query{}}
	if err := p.parseSelect(); err != nil {
		return nil, err
	}
	if err := p.q.Validate(); err != nil {
		return nil, fmt.Errorf("sqlparse: %w", err)
	}
	// Every referenced table/column must exist in the schema.
	for _, t := range p.q.Tables {
		if sch.Table(t) == nil {
			return nil, fmt.Errorf("sqlparse: unknown table %q", t)
		}
	}
	return p.q, nil
}

func (p *parser) parseSelect() error {
	if err := p.expectKeyword("select"); err != nil {
		return err
	}
	if err := p.parseSelectList(); err != nil {
		return err
	}
	if err := p.expectKeyword("from"); err != nil {
		return err
	}
	if err := p.parseFromList(); err != nil {
		return err
	}
	if err := p.resolveSelectList(); err != nil {
		return err
	}
	if p.cur().kind == tokIdent && p.cur().text == "where" {
		p.next()
		if err := p.parseConditions(); err != nil {
			return err
		}
	}
	if p.cur().kind == tokIdent && p.cur().text == "group" {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return err
		}
		if err := p.parseGroupBy(); err != nil {
			return err
		}
	}
	if p.cur().kind == tokSymbol && p.cur().text == ";" {
		p.next()
	}
	if t := p.cur(); t.kind != tokEOF {
		return fmt.Errorf("sqlparse: trailing input at %d: %q", t.pos, t.text)
	}
	return nil
}

var aggFuncs = map[string]query.AggFunc{
	"count": query.AggCount,
	"sum":   query.AggSum,
	"avg":   query.AggAvg,
	"min":   query.AggMin,
	"max":   query.AggMax,
}

func (p *parser) parseSelectList() error {
	if p.cur().kind == tokSymbol && p.cur().text == "*" {
		p.next()
		return nil
	}
	for {
		t := p.next()
		fn, ok := aggFuncs[t.text]
		if t.kind != tokIdent || !ok {
			return fmt.Errorf("sqlparse: expected aggregate function or * at %d, got %q", t.pos, t.text)
		}
		if err := p.expectSymbol("("); err != nil {
			return err
		}
		item := selectItem{fn: fn, pos: t.pos}
		if p.cur().kind == tokSymbol && p.cur().text == "*" {
			if fn != query.AggCount {
				return fmt.Errorf("sqlparse: %s(*) is not valid", strings.ToUpper(t.text))
			}
			item.star = true
			p.next()
		} else {
			name := p.next()
			if name.kind != tokIdent {
				return fmt.Errorf("sqlparse: expected column in aggregate at %d, got %q", name.pos, name.text)
			}
			item.column = name.text
			if p.cur().kind == tokSymbol && p.cur().text == "." {
				p.next()
				col := p.next()
				if col.kind != tokIdent {
					return fmt.Errorf("sqlparse: expected column after %q. at %d", name.text, col.pos)
				}
				item.table, item.column = name.text, col.text
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return err
		}
		p.selectItems = append(p.selectItems, item)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		return nil
	}
}

// resolveSelectList materializes the aggregates once FROM tables are known.
func (p *parser) resolveSelectList() error {
	for _, item := range p.selectItems {
		agg := query.Aggregate{Func: item.fn}
		switch {
		case item.star || item.fn == query.AggCount:
			// COUNT(col) behaves as COUNT(*) in this engine (no NULL
			// filtering on the counted column); normalize.
		default:
			col, err := p.resolveColumn(item.table, item.column, item.pos)
			if err != nil {
				return err
			}
			agg.Col = col
		}
		p.q.Aggregates = append(p.q.Aggregates, agg)
	}
	return nil
}

// resolveColumn resolves a possibly-unqualified column against the FROM
// tables. Qualified references validate both halves — the qualifier
// must be a FROM table and the column must exist in its schema —
// because downstream stages (optimizer, featurizers) index the schema
// by these names and must never see a reference the schema cannot
// answer. (Found by fuzzing: "t.nonsense" used to pass straight
// through.)
func (p *parser) resolveColumn(table, column string, pos int) (query.ColumnRef, error) {
	if table != "" {
		inFrom := false
		for _, tname := range p.q.Tables {
			if tname == table {
				inFrom = true
				break
			}
		}
		if !inFrom {
			return query.ColumnRef{}, fmt.Errorf("sqlparse: table %q at %d is not in the FROM list", table, pos)
		}
		tm := p.sch.Table(table)
		if tm == nil || tm.Column(column) == nil {
			return query.ColumnRef{}, fmt.Errorf("sqlparse: unknown column %s.%s", table, column)
		}
		return query.ColumnRef{Table: table, Column: column}, nil
	}
	var found []query.ColumnRef
	for _, tname := range p.q.Tables {
		tm := p.sch.Table(tname)
		if tm != nil && tm.Column(column) != nil {
			found = append(found, query.ColumnRef{Table: tname, Column: column})
		}
	}
	switch len(found) {
	case 1:
		return found[0], nil
	case 0:
		return query.ColumnRef{}, fmt.Errorf("sqlparse: unknown column %q", column)
	default:
		return query.ColumnRef{}, fmt.Errorf("sqlparse: ambiguous column %q (qualify with a table)", column)
	}
}

func (p *parser) parseFromList() error {
	seen := map[string]bool{}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return fmt.Errorf("sqlparse: expected table name at %d, got %q", t.pos, t.text)
		}
		if !seen[t.text] {
			seen[t.text] = true
			p.q.Tables = append(p.q.Tables, t.text)
		}
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		return nil
	}
}

// parseColumnRef parses "table.column" or a bare "column" resolved against
// the FROM tables (must be unambiguous).
func (p *parser) parseColumnRef() (query.ColumnRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return query.ColumnRef{}, fmt.Errorf("sqlparse: expected column reference at %d, got %q", t.pos, t.text)
	}
	if p.cur().kind == tokSymbol && p.cur().text == "." {
		p.next()
		col := p.next()
		if col.kind != tokIdent {
			return query.ColumnRef{}, fmt.Errorf("sqlparse: expected column after %q. at %d", t.text, col.pos)
		}
		return query.ColumnRef{Table: t.text, Column: col.text}, nil
	}
	return p.resolveColumn("", t.text, t.pos)
}

var cmpOps = map[string]query.CmpOp{
	"=": query.OpEq, "<": query.OpLt, "<=": query.OpLe,
	">": query.OpGt, ">=": query.OpGe, "<>": query.OpNeq,
}

func (p *parser) parseConditions() error {
	for {
		left, err := p.parseColumnRef()
		if err != nil {
			return err
		}
		opTok := p.next()
		if opTok.kind != tokOp {
			return fmt.Errorf("sqlparse: expected comparison operator at %d, got %q", opTok.pos, opTok.text)
		}
		op := cmpOps[opTok.text]
		rhs := p.cur()
		switch rhs.kind {
		case tokNumber:
			p.next()
			v, err := strconv.ParseFloat(rhs.text, 64)
			if err != nil {
				return fmt.Errorf("sqlparse: bad numeric literal %q at %d", rhs.text, rhs.pos)
			}
			p.q.Filters = append(p.q.Filters, query.Filter{Col: left, Op: op, Value: v})
		case tokIdent:
			right, err := p.parseColumnRef()
			if err != nil {
				return err
			}
			if op != query.OpEq {
				return fmt.Errorf("sqlparse: joins support only equality at %d", opTok.pos)
			}
			p.q.Joins = append(p.q.Joins, query.Join{Left: left, Right: right})
		default:
			return fmt.Errorf("sqlparse: expected literal or column at %d, got %q", rhs.pos, rhs.text)
		}
		if p.cur().kind == tokIdent && p.cur().text == "and" {
			p.next()
			continue
		}
		return nil
	}
}

func (p *parser) parseGroupBy() error {
	for {
		col, err := p.parseColumnRef()
		if err != nil {
			return err
		}
		p.q.GroupBy = append(p.q.GroupBy, col)
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.next()
			continue
		}
		return nil
	}
}
