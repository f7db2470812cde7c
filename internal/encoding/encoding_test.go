package encoding

import (
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/engine"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

func planFor(t *testing.T, db *storage.Database, q *query.Query, exec bool) *plan.Node {
	t.Helper()
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
	p, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if exec {
		if _, err := engine.New(db, engine.Config{}).Execute(p); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func joinQuery() *query.Query {
	return &query.Query{
		Tables: []string{"title", "movie_companies"},
		Joins: []query.Join{{
			Left:  query.ColumnRef{Table: "movie_companies", Column: "movie_id"},
			Right: query.ColumnRef{Table: "title", Column: "id"},
		}},
		Filters: []query.Filter{
			{Col: query.ColumnRef{Table: "title", Column: "production_year"}, Op: query.OpGt, Value: 50},
			{Col: query.ColumnRef{Table: "movie_companies", Column: "company_type_id"}, Op: query.OpEq, Value: 1},
		},
		Aggregates: []query.Aggregate{
			{Func: query.AggMin, Col: query.ColumnRef{Table: "title", Column: "production_year"}},
		},
	}
}

func TestEncodeProducesAllNodeTypes(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(t, db, joinQuery(), false)
	g, err := NewPlanEncoder(db.Schema, CardEstimated).Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[NodeType]int{}
	for i := 0; i < g.NumNodes(); i++ {
		typ := g.nodeType(i)
		counts[typ]++
		if len(g.feat(i)) != FeatDim(typ) {
			t.Fatalf("node type %d has %d features, want %d", typ, len(g.feat(i)), FeatDim(typ))
		}
	}
	if counts[OpNode] < 4 { // 2 scans, 1 join, 1 agg
		t.Fatalf("op nodes = %d, want >= 4", counts[OpNode])
	}
	if counts[TableNode] != 2 {
		t.Fatalf("table nodes = %d, want 2", counts[TableNode])
	}
	if counts[PredNode] != 2 {
		t.Fatalf("pred nodes = %d, want 2", counts[PredNode])
	}
	if counts[AggNode] != 1 {
		t.Fatalf("agg nodes = %d, want 1", counts[AggNode])
	}
	if counts[ColumnNode] == 0 {
		t.Fatal("no column nodes")
	}
	if g.nodeType(g.NumNodes()-1) != OpNode {
		t.Fatal("root is not an operator node")
	}
}

func TestTopologicalOrder(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	p := planFor(t, db, joinQuery(), false)
	g, err := NewPlanEncoder(db.Schema, CardEstimated).Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	hasParent := make([]bool, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		for _, c := range g.children(i) {
			if int(c) >= i {
				t.Fatal("child appears after parent in node order")
			}
			hasParent[c] = true
		}
	}
	// Every node but the root has a parent, and the root is the last node.
	for i, p := range hasParent {
		if root := i == len(hasParent)-1; p == root {
			t.Fatalf("node %d of %d: has a parent = %v, want %v", i, len(hasParent), p, !root)
		}
	}
}

func TestColumnNodesShared(t *testing.T) {
	// Two predicates on the same column must share one column node (DAG).
	db, _ := datagen.IMDBLike(0.02)
	q := &query.Query{
		Tables: []string{"title"},
		Filters: []query.Filter{
			{Col: query.ColumnRef{Table: "title", Column: "production_year"}, Op: query.OpGt, Value: 10},
			{Col: query.ColumnRef{Table: "title", Column: "production_year"}, Op: query.OpLt, Value: 90},
		},
		Aggregates: []query.Aggregate{
			{Func: query.AggMax, Col: query.ColumnRef{Table: "title", Column: "production_year"}},
		},
	}
	p := planFor(t, db, q, false)
	g, err := NewPlanEncoder(db.Schema, CardEstimated).Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	colCount := 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.nodeType(i) == ColumnNode {
			colCount++
		}
	}
	if colCount != 1 {
		t.Fatalf("column nodes = %d, want 1 (shared)", colCount)
	}
}

func TestCardSources(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	p := planFor(t, db, joinQuery(), true)

	gEst, err := NewPlanEncoder(db.Schema, CardEstimated).Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	gExact, err := NewPlanEncoder(db.Schema, CardExact).Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	gNone, err := NewPlanEncoder(db.Schema, CardNone).Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	cardAt := plan.NumOperators + 1
	anyDiffer := false
	for i := 0; i < gEst.NumNodes(); i++ {
		if gEst.nodeType(i) != OpNode {
			continue
		}
		if gNone.feat(i)[cardAt] != 0 {
			t.Fatal("CardNone left a cardinality feature set")
		}
		if gEst.feat(i)[cardAt] != gExact.feat(i)[cardAt] {
			anyDiffer = true
		}
	}
	if !anyDiffer {
		t.Fatal("estimated and exact cardinality features identical everywhere — estimates suspiciously perfect")
	}
}

func TestCardExactRequiresExecution(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	p := planFor(t, db, joinQuery(), false)
	if _, err := NewPlanEncoder(db.Schema, CardExact).Encode(p); err == nil {
		t.Fatal("CardExact accepted an unexecuted plan")
	}
}

// TestTransferability is the core property of the paper: encoding the
// "same-shaped" query on two different databases yields features with
// identical dimensions and identical semantics per position.
func TestTransferability(t *testing.T) {
	imdb, _ := datagen.IMDBLike(0.02)
	ssb, _ := datagen.SSBLike(0.02)

	qImdb := &query.Query{
		Tables:     []string{"title"},
		Filters:    []query.Filter{{Col: query.ColumnRef{Table: "title", Column: "production_year"}, Op: query.OpGt, Value: 10}},
		Aggregates: []query.Aggregate{{Func: query.AggCount}},
	}
	qSsb := &query.Query{
		Tables:     []string{"lineorder"},
		Filters:    []query.Filter{{Col: query.ColumnRef{Table: "lineorder", Column: "quantity"}, Op: query.OpGt, Value: 10}},
		Aggregates: []query.Aggregate{{Func: query.AggCount}},
	}
	p1 := planFor(t, imdb, qImdb, false)
	p2 := planFor(t, ssb, qSsb, false)
	g1, err := NewPlanEncoder(imdb.Schema, CardEstimated).Encode(p1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewPlanEncoder(ssb.Schema, CardEstimated).Encode(p2)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != g2.NumNodes() {
		t.Fatalf("structurally identical queries produced %d vs %d nodes", g1.NumNodes(), g2.NumNodes())
	}
	for i := 0; i < g1.NumNodes(); i++ {
		if g1.nodeType(i) != g2.nodeType(i) {
			t.Fatalf("node %d type differs", i)
		}
		if len(g1.feat(i)) != len(g2.feat(i)) {
			t.Fatalf("node %d feature dim differs", i)
		}
	}
	// Same one-hot segments (operator identity, predicate op, data type)
	// must match; magnitude features (row counts) may differ.
	for i := 0; i < g1.NumNodes(); i++ {
		f1, f2 := g1.feat(i), g2.feat(i)
		if g1.nodeType(i) == OpNode {
			for j := 0; j < plan.NumOperators; j++ {
				if f1[j] != f2[j] {
					t.Fatalf("op one-hot differs at node %d", i)
				}
			}
		}
		if g1.nodeType(i) == PredNode {
			for j := range f1 {
				if f1[j] != f2[j] {
					t.Fatalf("predicate features differ at node %d", i)
				}
			}
		}
	}
}

func TestVocabDeterministicAndBounded(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	v1 := NewVocab(db.Schema)
	v2 := NewVocab(db.Schema)
	for _, tm := range db.Schema.Tables {
		if v1.TableSlot(tm.Name) != v2.TableSlot(tm.Name) {
			t.Fatal("vocab not deterministic")
		}
		if v1.TableSlot(tm.Name) >= MaxVocabTables {
			t.Fatal("table slot out of range")
		}
		for _, cm := range tm.Columns {
			if v1.ColumnSlot(tm.Name, cm.Name) >= MaxVocabColumns {
				t.Fatal("column slot out of range")
			}
		}
	}
}

func TestMSCNFeaturization(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	f := NewMSCNFeaturizer(NewVocab(db.Schema), st)
	q := joinQuery()
	feats := f.Featurize(q)
	if len(feats.Tables) != 2 || len(feats.Joins) != 1 || len(feats.Preds) != 2 {
		t.Fatalf("set sizes: tables=%d joins=%d preds=%d", len(feats.Tables), len(feats.Joins), len(feats.Preds))
	}
	for _, v := range feats.Preds {
		if len(v) != MSCNPredDim {
			t.Fatalf("pred dim %d, want %d", len(v), MSCNPredDim)
		}
		lit := v[MSCNPredDim-1]
		if lit < 0 || lit > 1 {
			t.Fatalf("literal not normalized: %v", lit)
		}
	}
	// One-hot sanity: exactly one table bit set per vector.
	for _, v := range feats.Tables {
		ones := 0
		for _, x := range v {
			if x == 1 {
				ones++
			}
		}
		if ones != 1 {
			t.Fatalf("table vector has %d ones", ones)
		}
	}
}

func TestE2EFeaturizationTreeShape(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	p := planFor(t, db, joinQuery(), false)
	f := NewE2EFeaturizer(NewVocab(db.Schema), st)
	root := f.Featurize(p)
	var count func(*E2ENode) int
	count = func(n *E2ENode) int {
		c := 1
		for _, ch := range n.Children {
			c += count(ch)
		}
		return c
	}
	if got, want := count(root), p.Count(); got != want {
		t.Fatalf("E2E tree has %d nodes, plan has %d", got, want)
	}
	if len(root.Feat) != E2ENodeDim {
		t.Fatalf("E2E node dim %d, want %d", len(root.Feat), E2ENodeDim)
	}
}

// TestOneHotNotTransferable documents the failure mode the paper fixes:
// the same vocabulary applied to a different database maps different
// tables onto the same one-hot slots.
func TestOneHotNotTransferable(t *testing.T) {
	imdb, _ := datagen.IMDBLike(0.02)
	ssb, _ := datagen.SSBLike(0.02)
	vImdb := NewVocab(imdb.Schema)
	vSsb := NewVocab(ssb.Schema)
	// Slot 0 means "cast_info" on IMDB but "customer" on SSB.
	if vImdb.TableSlot("cast_info") != vSsb.TableSlot("customer") {
		t.Skip("sorted orders happen to differ; the collision below still demonstrates the point")
	}
	if vImdb.TableSlot("cast_info") != 0 || vSsb.TableSlot("customer") != 0 {
		t.Fatalf("expected slot 0 collisions, got %d and %d",
			vImdb.TableSlot("cast_info"), vSsb.TableSlot("customer"))
	}
}

func TestWithHardwareDoesNotMutateOriginal(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	p := planFor(t, db, joinQuery(), false)
	base := NewPlanEncoder(db.Schema, CardEstimated)
	hw := base.WithHardware(Hardware{RelCPU: 2, RelSeqIO: 2, RelRandIO: 2, CacheMB: 4, BufferPoolPages: 512})

	gBase, err := base.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	gHW, err := hw.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	hwStart := plan.NumOperators + 4
	for i := 0; i < gBase.NumNodes(); i++ {
		if gBase.nodeType(i) != OpNode {
			continue
		}
		for j := hwStart; j < OpFeatDim; j++ {
			if gBase.feat(i)[j] != 0 {
				t.Fatalf("base encoder has hardware feature set at node %d", i)
			}
		}
		set := false
		for j := hwStart; j < OpFeatDim; j++ {
			if gHW.feat(i)[j] != 0 {
				set = true
			}
		}
		if !set {
			t.Fatalf("hardware encoder left features zero at node %d", i)
		}
	}
}

func TestHardwareZeroValueIsAllZeros(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	p := planFor(t, db, joinQuery(), false)
	a, err := NewPlanEncoder(db.Schema, CardEstimated).Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanEncoder(db.Schema, CardEstimated).WithHardware(Hardware{}).Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumNodes(); i++ {
		for j := range a.feat(i) {
			if a.feat(i)[j] != b.feat(i)[j] {
				t.Fatal("zero Hardware changed features")
			}
		}
	}
}
