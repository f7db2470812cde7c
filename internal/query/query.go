// Package query defines the logical query model — select-project-join-
// aggregate queries over foreign-key join graphs — and the workload
// generators used for training-data collection and evaluation.
//
// The query shape matches the workloads of the paper's case study: up to
// five-way joins, up to five numerical and categorical predicates and up to
// three aggregates (Section 3.2).
package query

import (
	"fmt"
	"sort"
	"strings"
)

// ColumnRef names a column of a specific table.
type ColumnRef struct {
	Table  string
	Column string
}

// String returns "table.column".
func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// CmpOp is a comparison operator in a filter predicate.
type CmpOp int

const (
	OpEq CmpOp = iota
	OpLt
	OpLe
	OpGt
	OpGe
	OpNeq
)

// NumCmpOps is the number of comparison operators; featurizers size their
// one-hot segments with it.
const NumCmpOps = 6

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpNeq:
		return "<>"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// Filter is a single-column predicate "col op literal". Literals are stored
// as float64; for integer and categorical columns the value is the int64
// code converted to float.
type Filter struct {
	Col   ColumnRef
	Op    CmpOp
	Value float64
}

// String renders the filter as SQL.
func (f Filter) String() string {
	return fmt.Sprintf("%s %s %v", f.Col, f.Op, f.Value)
}

// Join is an equi-join between two columns, always along a foreign key in
// generated workloads.
type Join struct {
	Left  ColumnRef
	Right ColumnRef
}

// String renders the join condition as SQL.
func (j Join) String() string { return fmt.Sprintf("%s = %s", j.Left, j.Right) }

// AggFunc enumerates aggregate functions.
type AggFunc int

const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// NumAggFuncs is the number of aggregate functions.
const NumAggFuncs = 5

// String returns the SQL name of the aggregate function.
func (a AggFunc) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(a))
	}
}

// Aggregate is one output aggregate. COUNT ignores Col (COUNT(*)).
type Aggregate struct {
	Func AggFunc
	Col  ColumnRef // zero value for COUNT(*)
}

// String renders the aggregate as SQL.
func (a Aggregate) String() string {
	if a.Func == AggCount && a.Col.Table == "" {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Col)
}

// Query is a logical select-project-join-aggregate query.
type Query struct {
	// Tables lists the involved tables (no duplicates).
	Tables []string
	// Joins holds the equi-join conditions connecting Tables.
	Joins []Join
	// Filters holds the single-column predicates.
	Filters []Filter
	// Aggregates holds the output aggregates; empty means SELECT * (the
	// engine still counts output tuples).
	Aggregates []Aggregate
	// GroupBy optionally groups the aggregates.
	GroupBy []ColumnRef
}

// FiltersOn returns the filters whose column belongs to the named table.
func (q *Query) FiltersOn(table string) []Filter {
	var out []Filter
	for _, f := range q.Filters {
		if f.Col.Table == table {
			out = append(out, f)
		}
	}
	return out
}

// Validate checks internal consistency: tables unique, joins and filters
// reference involved tables, and the join graph connects all tables.
func (q *Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("query: no tables")
	}
	seen := map[string]bool{}
	for _, t := range q.Tables {
		if seen[t] {
			return fmt.Errorf("query: duplicate table %s", t)
		}
		seen[t] = true
	}
	for _, j := range q.Joins {
		if !seen[j.Left.Table] || !seen[j.Right.Table] {
			return fmt.Errorf("query: join %s references table outside FROM", j)
		}
		if j.Left.Table == j.Right.Table {
			return fmt.Errorf("query: self join %s not supported", j)
		}
	}
	for _, f := range q.Filters {
		if !seen[f.Col.Table] {
			return fmt.Errorf("query: filter %s references table outside FROM", f)
		}
	}
	for _, a := range q.Aggregates {
		if a.Col.Table != "" && !seen[a.Col.Table] {
			return fmt.Errorf("query: aggregate %s references table outside FROM", a)
		}
	}
	for _, g := range q.GroupBy {
		if !seen[g.Table] {
			return fmt.Errorf("query: group by %s references table outside FROM", g)
		}
	}
	if len(q.Tables) > 1 {
		if !q.connected() {
			return fmt.Errorf("query: join graph does not connect all tables")
		}
	}
	return nil
}

// connected reports whether the join conditions connect all tables.
func (q *Query) connected() bool {
	adj := map[string][]string{}
	for _, j := range q.Joins {
		adj[j.Left.Table] = append(adj[j.Left.Table], j.Right.Table)
		adj[j.Right.Table] = append(adj[j.Right.Table], j.Left.Table)
	}
	visited := map[string]bool{q.Tables[0]: true}
	stack := []string{q.Tables[0]}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[cur] {
			if !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(visited) == len(q.Tables)
}

// SQL renders the query as a SQL string for logging and debugging.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.Aggregates) == 0 {
		b.WriteString("*")
	} else {
		parts := make([]string, len(q.Aggregates))
		for i, a := range q.Aggregates {
			parts[i] = a.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	tables := append([]string(nil), q.Tables...)
	sort.Strings(tables)
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(tables, ", "))
	var conds []string
	for _, j := range q.Joins {
		conds = append(conds, j.String())
	}
	for _, f := range q.Filters {
		conds = append(conds, f.String())
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		parts := make([]string, len(q.GroupBy))
		for i, g := range q.GroupBy {
			parts[i] = g.String()
		}
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteString(";")
	return b.String()
}
