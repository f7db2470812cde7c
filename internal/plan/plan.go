// Package plan defines physical query plans: operator trees annotated with
// estimated and true cardinalities, widths and optimizer costs.
//
// Plans are produced by the optimizer, executed by the engine (which fills
// in true cardinalities and work counters), and featurized by the encoders.
// Physical — not logical — operators are what the paper's zero-shot model
// consumes: "each node in this graph represents a physical operator ... to
// capture the differences in runtime complexity" (Section 3.1).
package plan

import (
	"fmt"
	"strings"

	"github.com/zeroshot-db/zeroshot/internal/query"
)

// Operator enumerates physical operators.
type Operator int

const (
	// SeqScan reads a full table, applying pushed-down filters.
	SeqScan Operator = iota
	// IndexScan reads rows via a secondary index, either over a constant
	// range (from a pushed-down predicate) or parameterized by a join key
	// when it is the inner side of a nested-loop join.
	IndexScan
	// HashJoin builds a hash table on the right child and probes with the
	// left child.
	HashJoin
	// NestedLoopJoin iterates the left child and, per row, re-evaluates the
	// right child (which is an index lookup in all optimizer-produced
	// plans).
	NestedLoopJoin
	// HashAggregate computes grouped or scalar aggregates over its child.
	HashAggregate
)

// NumOperators is the number of physical operator kinds; featurizers size
// their one-hot segments with it.
const NumOperators = 5

// String returns the EXPLAIN-style operator name.
func (o Operator) String() string {
	switch o {
	case SeqScan:
		return "Seq Scan"
	case IndexScan:
		return "Index Scan"
	case HashJoin:
		return "Hash Join"
	case NestedLoopJoin:
		return "Nested Loop"
	case HashAggregate:
		return "Aggregate"
	default:
		return fmt.Sprintf("Operator(%d)", int(o))
	}
}

// Counters records the work an operator actually performed during
// execution. The hardware simulator converts counters into runtimes; the
// learned models never see them.
type Counters struct {
	// PagesRead is the number of table/index pages fetched.
	PagesRead float64
	// TuplesIn is the number of input tuples consumed (sum over children
	// for joins).
	TuplesIn float64
	// TuplesOut is the number of tuples emitted.
	TuplesOut float64
	// PredEvals is the number of predicate evaluations performed.
	PredEvals float64
	// HashBuild is the number of tuples inserted into hash tables.
	HashBuild float64
	// HashProbes is the number of hash table probes.
	HashProbes float64
	// IndexLookups is the number of index descents.
	IndexLookups float64
	// IndexEntries is the number of index entries scanned.
	IndexEntries float64
	// AggUpdates is the number of aggregate-state updates.
	AggUpdates float64
	// Groups is the number of output groups of an aggregate.
	Groups float64
	// BytesOut is the number of bytes emitted.
	BytesOut float64
}

// Node is one operator of a physical plan tree.
type Node struct {
	Op Operator

	// Table is the scanned table for scan operators.
	Table string
	// IndexColumn is the indexed column used by IndexScan.
	IndexColumn string
	// LookupJoin marks an IndexScan that is parameterized by the enclosing
	// nested-loop join's outer key instead of a constant predicate.
	LookupJoin bool
	// Filters are the predicates applied at this node (pushed down to scans).
	Filters []query.Filter
	// Join is the equi-join condition for join operators.
	Join *query.Join
	// Aggregates and GroupBy describe a HashAggregate.
	Aggregates []query.Aggregate
	GroupBy    []query.ColumnRef

	// Children are the input operators (0 for scans, 2 for joins, 1 for
	// aggregates).
	Children []*Node

	// EstRows is the optimizer's output-cardinality estimate.
	EstRows float64
	// TrueRows is the observed output cardinality (filled by the engine;
	// -1 until executed).
	TrueRows float64
	// Width is the output tuple width in bytes.
	Width float64
	// EstCost is the optimizer's cumulative cost estimate.
	EstCost float64
	// Work holds the execution work counters (filled by the engine).
	Work Counters
}

// NewNode creates a node with TrueRows marked unknown.
func NewNode(op Operator) *Node {
	return &Node{Op: op, TrueRows: -1}
}

// Walk visits the tree bottom-up (post-order), calling fn on every node.
func (n *Node) Walk(fn func(*Node)) {
	for _, c := range n.Children {
		c.Walk(fn)
	}
	fn(n)
}

// Count returns the number of nodes in the subtree.
func (n *Node) Count() int {
	count := 0
	n.Walk(func(*Node) { count++ })
	return count
}

// Tables returns the set of base tables scanned in the subtree.
func (n *Node) Tables() map[string]bool {
	out := map[string]bool{}
	n.Walk(func(m *Node) {
		if m.Op == SeqScan || m.Op == IndexScan {
			out[m.Table] = true
		}
	})
	return out
}

// Clone deep-copies the subtree (annotations included).
func (n *Node) Clone() *Node {
	c := *n
	c.Filters = append([]query.Filter(nil), n.Filters...)
	c.Aggregates = append([]query.Aggregate(nil), n.Aggregates...)
	c.GroupBy = append([]query.ColumnRef(nil), n.GroupBy...)
	if n.Join != nil {
		j := *n.Join
		c.Join = &j
	}
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = ch.Clone()
	}
	return &c
}

// Validate checks structural plan invariants: child counts per operator,
// scans have tables, index scans have index columns, joins have conditions.
func (n *Node) Validate() error {
	var err error
	n.Walk(func(m *Node) {
		if err != nil {
			return
		}
		switch m.Op {
		case SeqScan, IndexScan:
			if len(m.Children) != 0 {
				err = fmt.Errorf("plan: scan with %d children", len(m.Children))
				return
			}
			if m.Table == "" {
				err = fmt.Errorf("plan: scan without table")
				return
			}
			if m.Op == IndexScan && m.IndexColumn == "" {
				err = fmt.Errorf("plan: index scan on %s without index column", m.Table)
				return
			}
		case HashJoin, NestedLoopJoin:
			if len(m.Children) != 2 {
				err = fmt.Errorf("plan: %s with %d children", m.Op, len(m.Children))
				return
			}
			if m.Join == nil {
				err = fmt.Errorf("plan: %s without join condition", m.Op)
				return
			}
		case HashAggregate:
			if len(m.Children) != 1 {
				err = fmt.Errorf("plan: aggregate with %d children", len(m.Children))
				return
			}
		default:
			err = fmt.Errorf("plan: unknown operator %d", int(m.Op))
		}
	})
	return err
}

// Explain renders the plan EXPLAIN-style with estimated and true rows.
func (n *Node) Explain() string {
	var b strings.Builder
	n.explain(&b, 0)
	return b.String()
}

func (n *Node) explain(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op.String())
	if n.Table != "" {
		fmt.Fprintf(b, " on %s", n.Table)
	}
	if n.IndexColumn != "" {
		fmt.Fprintf(b, " using idx(%s)", n.IndexColumn)
		if n.LookupJoin {
			b.WriteString(" [lookup]")
		}
	}
	if n.Join != nil {
		fmt.Fprintf(b, " (%s)", n.Join)
	}
	for _, f := range n.Filters {
		fmt.Fprintf(b, " [%s]", f)
	}
	if len(n.Aggregates) > 0 {
		parts := make([]string, len(n.Aggregates))
		for i, a := range n.Aggregates {
			parts[i] = a.String()
		}
		fmt.Fprintf(b, " {%s}", strings.Join(parts, ", "))
	}
	fmt.Fprintf(b, "  (est=%.0f true=%.0f cost=%.1f)\n", n.EstRows, n.TrueRows, n.EstCost)
	for _, c := range n.Children {
		c.explain(b, depth+1)
	}
}
