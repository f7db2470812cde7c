package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// singleColumnDB builds a one-table database with the given int values.
func singleColumnDB(vals []int64) *storage.Database {
	meta := &schema.Table{
		Name: "t",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt, PrimaryKey: true},
			{Name: "v", Type: schema.TypeInt},
		},
		RowCount: len(vals),
	}
	meta.ComputePages()
	tab := storage.NewTable(meta)
	for i, v := range vals {
		tab.Cols[0].Ints = append(tab.Cols[0].Ints, int64(i))
		tab.Cols[1].Ints = append(tab.Cols[1].Ints, v)
	}
	meta.Columns[0].DistinctCount = len(vals)
	set := map[int64]bool{}
	for _, v := range vals {
		set[v] = true
	}
	meta.Columns[1].DistinctCount = len(set)
	s := &schema.Schema{Name: "one", Tables: []*schema.Table{meta}}
	db := storage.NewDatabase(s)
	db.AddTable(tab)
	return db
}

func trueSelectivity(vals []int64, op query.CmpOp, x float64) float64 {
	count := 0
	for _, v := range vals {
		fv := float64(v)
		ok := false
		switch op {
		case query.OpEq:
			ok = fv == x
		case query.OpNeq:
			ok = fv != x
		case query.OpLt:
			ok = fv < x
		case query.OpLe:
			ok = fv <= x
		case query.OpGt:
			ok = fv > x
		case query.OpGe:
			ok = fv >= x
		}
		if ok {
			count++
		}
	}
	return float64(count) / float64(len(vals))
}

func TestFilterSelectivityCloseToTruthUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	db := singleColumnDB(vals)
	st := Collect(db, DefaultBuckets, DefaultMCVs)
	for _, c := range []struct {
		op query.CmpOp
		x  float64
	}{
		{query.OpLe, 250}, {query.OpLt, 500}, {query.OpGt, 750}, {query.OpGe, 100},
		{query.OpEq, 42}, {query.OpNeq, 42},
	} {
		f := query.Filter{Col: query.ColumnRef{Table: "t", Column: "v"}, Op: c.op, Value: c.x}
		got := st.FilterSelectivity(f)
		want := trueSelectivity(vals, c.op, c.x)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("selectivity(%v %v): got %v, want %v", c.op, c.x, got, want)
		}
	}
}

func TestMCVsCatchHeavyHitters(t *testing.T) {
	// 60% of rows share one value; the MCV list must capture it exactly.
	vals := make([]int64, 1000)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		if i < 600 {
			vals[i] = 7
		} else {
			vals[i] = int64(100 + rng.Intn(900))
		}
	}
	db := singleColumnDB(vals)
	st := Collect(db, DefaultBuckets, DefaultMCVs)
	f := query.Filter{Col: query.ColumnRef{Table: "t", Column: "v"}, Op: query.OpEq, Value: 7}
	got := st.FilterSelectivity(f)
	if math.Abs(got-0.6) > 0.01 {
		t.Fatalf("MCV equality selectivity = %v, want 0.6", got)
	}
}

func TestSelectivityBoundsProperty(t *testing.T) {
	f := func(raw []int16, x int16, opRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		db := singleColumnDB(vals)
		st := Collect(db, 8, 4)
		op := query.CmpOp(int(opRaw) % query.NumCmpOps)
		sel := st.FilterSelectivity(query.Filter{
			Col: query.ColumnRef{Table: "t", Column: "v"}, Op: op, Value: float64(x),
		})
		return sel >= 0 && sel <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramLEMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	sort.Float64s(vals)
	h := buildEquiDepth(vals, 16)
	prev := -1.0
	for x := -300.0; x <= 300; x += 10 {
		sel := h.SelectivityLE(x)
		if sel < prev-1e-9 {
			t.Fatalf("SelectivityLE not monotone at %v: %v < %v", x, sel, prev)
		}
		prev = sel
	}
	if got := h.SelectivityLE(math.Inf(1)); math.Abs(got-1) > 1e-9 {
		t.Fatalf("SelectivityLE(inf) = %v", got)
	}
	if got := h.SelectivityLE(math.Inf(-1)); got != 0 {
		t.Fatalf("SelectivityLE(-inf) = %v", got)
	}
}

func TestNullsExcludedFromComparisons(t *testing.T) {
	meta := &schema.Table{
		Name: "n",
		Columns: []schema.Column{
			{Name: "v", Type: schema.TypeInt, NullFrac: 0.5},
		},
		RowCount: 1000,
	}
	meta.ComputePages()
	tab := storage.NewTable(meta)
	tab.Cols[0].Nulls = make([]bool, 1000)
	for i := 0; i < 1000; i++ {
		tab.Cols[0].Ints = append(tab.Cols[0].Ints, int64(i%10))
		if i%2 == 0 {
			tab.Cols[0].Nulls[i] = true
		}
	}
	meta.Columns[0].DistinctCount = 10
	s := &schema.Schema{Name: "nulls", Tables: []*schema.Table{meta}}
	db := storage.NewDatabase(s)
	db.AddTable(tab)
	st := Collect(db, DefaultBuckets, DefaultMCVs)
	// v >= 0 matches every non-null row: selectivity should be ~0.5, not 1.
	sel := st.FilterSelectivity(query.Filter{
		Col: query.ColumnRef{Table: "n", Column: "v"}, Op: query.OpGe, Value: 0,
	})
	if math.Abs(sel-0.5) > 0.05 {
		t.Fatalf("selectivity with 50%% nulls = %v, want about 0.5", sel)
	}
}

func TestJoinSelectivity(t *testing.T) {
	db, err := datagen.IMDBLike(0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := Collect(db, DefaultBuckets, DefaultMCVs)
	j := query.Join{
		Left:  query.ColumnRef{Table: "movie_companies", Column: "movie_id"},
		Right: query.ColumnRef{Table: "title", Column: "id"},
	}
	sel := st.JoinSelectivity(j)
	titleRows := float64(db.Schema.Table("title").RowCount)
	want := 1 / titleRows // title.id is the PK with rowCount distinct values
	if math.Abs(sel-want)/want > 1e-9 {
		t.Fatalf("join selectivity = %v, want %v", sel, want)
	}
}

func TestEstimateGroupCount(t *testing.T) {
	db, _ := datagen.IMDBLike(0.05)
	st := Collect(db, DefaultBuckets, DefaultMCVs)
	g := []query.ColumnRef{{Table: "title", Column: "kind_id"}}
	n := st.EstimateGroupCount(g, 10000)
	kinds := st.Column("title", "kind_id").DistinctCount
	if n != float64(kinds) {
		t.Fatalf("EstimateGroupCount = %v, want %d", n, kinds)
	}
	// Group count never exceeds input rows.
	if got := st.EstimateGroupCount(g, 2); got > 2 {
		t.Fatalf("group count %v exceeds input rows", got)
	}
	if got := st.EstimateGroupCount(nil, 100); got != 1 {
		t.Fatalf("empty group by count = %v, want 1", got)
	}
}

func TestUnknownColumnFallsBack(t *testing.T) {
	db := singleColumnDB([]int64{1, 2, 3})
	st := Collect(db, DefaultBuckets, DefaultMCVs)
	sel := st.FilterSelectivity(query.Filter{
		Col: query.ColumnRef{Table: "ghost", Column: "x"}, Op: query.OpEq, Value: 1,
	})
	if sel <= 0 || sel > 1 {
		t.Fatalf("fallback selectivity = %v", sel)
	}
}

func TestCollectHandlesWholeDatabase(t *testing.T) {
	db, err := datagen.Generate("statsdb", 9, datagen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := Collect(db, DefaultBuckets, DefaultMCVs)
	for _, tm := range db.Schema.Tables {
		for _, cm := range tm.Columns {
			cs := st.Column(tm.Name, cm.Name)
			if cs == nil {
				t.Fatalf("missing stats for %s.%s", tm.Name, cm.Name)
			}
			if cs.RowCount != tm.RowCount {
				t.Fatalf("%s.%s RowCount = %d, want %d", tm.Name, cm.Name, cs.RowCount, tm.RowCount)
			}
			if cs.DistinctCount > tm.RowCount {
				t.Fatalf("%s.%s distinct %d > rows %d", tm.Name, cm.Name, cs.DistinctCount, tm.RowCount)
			}
		}
	}
}
