package encoding

import (
	"reflect"
	"testing"
)

// nodeType, feat and children read node i of a built graph.
func (g *Graph) nodeType(i int) NodeType { return NodeType(g.types()[i]) }

func (g *Graph) feat(i int) []float64 {
	t := g.nodeType(i)
	dim := FeatDim(t)
	at := int(g.featAt[t]) + int(g.rows()[i])*dim
	return g.feats[at : at+dim]
}

func (g *Graph) children(i int) []int32 { return g.kids()[g.kidAt()[i]:g.kidAt()[i+1]] }

// TestGraphHoldsNoPointers: nothing a Graph holds, through any field,
// slice element or array element, is or contains a pointer, so the
// collector never scans a retained graph's slabs. A string, map,
// interface, func, channel or pointer field anywhere fails it.
func TestGraphHoldsNoPointers(t *testing.T) {
	var walk func(path string, tp reflect.Type)
	walk = func(path string, tp reflect.Type) {
		switch tp.Kind() {
		case reflect.Struct:
			for i := 0; i < tp.NumField(); i++ {
				f := tp.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Slice, reflect.Array:
			walk(path+"[]", tp.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: a Graph must hold only numbers and slabs of numbers", path, tp.Kind())
		}
	}
	walk("Graph", reflect.TypeOf(Graph{}))
}

// TestGraphBuilderPanics: a builder refuses a node or a child slot
// beyond the size it was given, and a graph with nodes missing.
func TestGraphBuilderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	var one [NumNodeTypes]int
	one[OpNode] = 1
	mustPanic("no nodes", func() {
		b := NewGraphBuilder([NumNodeTypes]int{}, 0)
		b.Graph()
	})
	mustPanic("node missing", func() {
		b := NewGraphBuilder(one, 0)
		b.Graph()
	})
	mustPanic("type over its count", func() {
		b := NewGraphBuilder(one, 0)
		b.Add(TableNode)
	})
	mustPanic("too many children", func() {
		b := NewGraphBuilder(one, 0)
		b.Add(OpNode, 0)
	})
	mustPanic("child slot unused", func() {
		b := NewGraphBuilder(one, 1)
		b.Add(OpNode)
		b.Graph()
	})
	b := NewGraphBuilder(one, 0)
	if id, feat := b.Add(OpNode); id != 0 || len(feat) != OpFeatDim || cap(feat) != OpFeatDim {
		t.Fatalf("Add = %d, %d features (cap %d)", id, len(feat), cap(feat))
	}
	if g := b.Graph(); g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
}
