package engine

import (
	"encoding/binary"
	"math"
	"slices"

	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
)

// aggState accumulates one aggregate function over one group.
type aggState struct {
	fn    query.AggFunc
	count float64
	sum   float64
	min   float64
	max   float64
}

// update folds in the value of column c in tuple.
func (s *aggState) update(c colRef, tuple []int32) {
	if s.fn == query.AggCount {
		s.count++ // COUNT counts rows regardless of nulls, and reads no column
		return
	}
	v, ok := c.at(tuple)
	if !ok {
		return
	}
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

func (s *aggState) value() float64 {
	if s.fn == query.AggCount {
		return s.count
	}
	if s.count == 0 { // every input NULL, or no input
		return 0
	}
	switch s.fn {
	case query.AggSum:
		return s.sum
	case query.AggAvg:
		return s.sum / s.count
	case query.AggMin:
		return s.min
	case query.AggMax:
		return s.max
	default:
		return 0
	}
}

// aggregator folds each tuple of a HashAggregate's input into its group's
// aggregate states as the tuple arrives, so the input, a join's output
// included, is never materialized.
type aggregator struct {
	n      *plan.Node
	aggs   []colRef // zero for COUNT(*)
	keys   []colRef
	groups map[string][]aggState
	// key is the current tuple's group key, reused: the little-endian bits
	// of each group-by value, NULL as NaN.
	key    []byte
	tuples float64
}

func (a *aggregator) add(tuple []int32) {
	a.tuples++
	a.key = a.key[:0]
	for _, k := range a.keys {
		v, ok := k.at(tuple)
		if !ok {
			v = math.NaN()
		}
		a.key = binary.LittleEndian.AppendUint64(a.key, math.Float64bits(v))
	}
	states, ok := a.groups[string(a.key)]
	if !ok {
		states = a.newStates()
		a.groups[string(a.key)] = states
	}
	for i, c := range a.aggs {
		states[i].update(c, tuple)
	}
}

func (a *aggregator) newStates() []aggState {
	states := make([]aggState, len(a.n.Aggregates))
	for i, ag := range a.n.Aggregates {
		states[i] = aggState{fn: ag.Func, min: math.Inf(1), max: math.Inf(-1)}
	}
	return states
}

// execAggregate evaluates grouped or scalar aggregates over the child's
// tuples as they arrive, records the group values, in key order, on the
// executor, and hands out one (empty) tuple per group so that
// cardinalities propagate.
func (e *Executor) execAggregate(n *plan.Node, out sink) error {
	a := &aggregator{n: n, groups: map[string][]aggState{}}
	tables := tablesOf(n.Children[0])
	for _, ag := range n.Aggregates {
		var c colRef
		if ag.Func != query.AggCount || ag.Col.Table != "" {
			var err error
			if c, err = e.column(tables, ag.Col); err != nil {
				return err
			}
		}
		a.aggs = append(a.aggs, c)
	}
	for _, g := range n.GroupBy {
		c, err := e.column(tables, g)
		if err != nil {
			return err
		}
		a.keys = append(a.keys, c)
	}
	if err := e.run(n.Children[0], a.add); err != nil {
		return err
	}
	// Scalar aggregates over empty input still produce one output row.
	if len(a.keys) == 0 && len(a.groups) == 0 {
		a.groups[""] = a.newStates()
	}
	keys := make([]string, 0, len(a.groups))
	for key := range a.groups {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	e.aggValues = make([][]float64, 0, len(keys))
	for _, key := range keys {
		states := a.groups[key]
		row := make([]float64, len(states))
		for i := range states {
			row[i] = states[i].value()
		}
		e.aggValues = append(e.aggValues, row)
		out(nil) // aggregate output carries no base-table row ids
	}
	groups := float64(len(keys))
	n.Work = plan.Counters{
		TuplesIn:   a.tuples,
		TuplesOut:  groups,
		AggUpdates: a.tuples * float64(len(a.aggs)), // every tuple updates every aggregate
		Groups:     groups,
		BytesOut:   groups * n.Width,
	}
	n.TrueRows = groups
	return nil
}
