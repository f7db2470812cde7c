package storage

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/zeroshot-db/zeroshot/internal/schema"
)

func testTable(t *testing.T, rows int) (*Table, *schema.Table) {
	t.Helper()
	meta := &schema.Table{
		Name: "t",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt, PrimaryKey: true},
			{Name: "v", Type: schema.TypeInt},
			{Name: "f", Type: schema.TypeFloat},
		},
		RowCount: rows,
	}
	meta.ComputePages()
	tab := NewTable(meta)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		tab.Cols[0].Ints = append(tab.Cols[0].Ints, int64(i))
		tab.Cols[1].Ints = append(tab.Cols[1].Ints, int64(rng.Intn(50)))
		tab.Cols[2].Floats = append(tab.Cols[2].Floats, rng.Float64()*100)
	}
	return tab, meta
}

func TestTableBasics(t *testing.T) {
	tab, _ := testTable(t, 100)
	if got := tab.Rows(); got != 100 {
		t.Fatalf("Rows() = %d, want 100", got)
	}
	if tab.Col("v") == nil {
		t.Fatal("Col(v) = nil")
	}
	if tab.Col("missing") != nil {
		t.Fatal("Col(missing) != nil")
	}
}

func TestIndexRangeMatchesLinearScan(t *testing.T) {
	tab, _ := testTable(t, 500)
	ix, err := BuildIndex(tab, "v")
	if err != nil {
		t.Fatal(err)
	}
	col := tab.Col("v")
	for _, bounds := range [][2]float64{{10, 20}, {0, 0}, {49, 49}, {-5, 3}, {45, 100}, {math.Inf(-1), math.Inf(1)}} {
		lo, hi := bounds[0], bounds[1]
		got := ix.Range(lo, hi)
		var want []int32
		for r := 0; r < tab.Rows(); r++ {
			v := col.AsFloat(r)
			if v >= lo && v <= hi {
				want = append(want, int32(r))
			}
		}
		gotSorted := append([]int32(nil), got...)
		sort.Slice(gotSorted, func(a, b int) bool { return gotSorted[a] < gotSorted[b] })
		if len(gotSorted) != len(want) {
			t.Fatalf("Range(%v,%v) returned %d rows, want %d", lo, hi, len(gotSorted), len(want))
		}
		for i := range want {
			if gotSorted[i] != want[i] {
				t.Fatalf("Range(%v,%v) row mismatch at %d: got %d want %d", lo, hi, i, gotSorted[i], want[i])
			}
		}
	}
}

func TestIndexRangeReturnsValuesInOrder(t *testing.T) {
	tab, _ := testTable(t, 300)
	ix, err := BuildIndex(tab, "f")
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Range(10, 90)
	col := tab.Col("f")
	for i := 1; i < len(got); i++ {
		if col.AsFloat(int(got[i-1])) > col.AsFloat(int(got[i])) {
			t.Fatalf("index range not value-ordered at position %d", i)
		}
	}
}

func TestIndexSkipsNulls(t *testing.T) {
	meta := &schema.Table{
		Name:     "n",
		Columns:  []schema.Column{{Name: "v", Type: schema.TypeInt}},
		RowCount: 4,
	}
	meta.ComputePages()
	tab := NewTable(meta)
	tab.Cols[0].Ints = []int64{5, 1, 9, 3}
	tab.Cols[0].Nulls = []bool{false, true, false, true}
	ix, err := BuildIndex(tab, "v")
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Range(math.Inf(-1), math.Inf(1))
	if len(got) != 2 {
		t.Fatalf("Range over all values returned %d rows, want 2 (nulls skipped)", len(got))
	}
	for _, r := range got {
		if tab.Cols[0].IsNull(int(r)) {
			t.Fatalf("index returned NULL row %d", r)
		}
	}
}

func TestIndexLookupEquality(t *testing.T) {
	tab, _ := testTable(t, 400)
	ix, err := BuildIndex(tab, "v")
	if err != nil {
		t.Fatal(err)
	}
	col := tab.Col("v")
	got := ix.Lookup(25)
	for _, r := range got {
		if col.Int(int(r)) != 25 {
			t.Fatalf("Lookup(25) returned row with value %d", col.Int(int(r)))
		}
	}
	count := 0
	for r := 0; r < tab.Rows(); r++ {
		if col.Int(r) == 25 {
			count++
		}
	}
	if len(got) != count {
		t.Fatalf("Lookup(25) = %d rows, want %d", len(got), count)
	}
}

func TestIndexOnUnknownColumn(t *testing.T) {
	tab, _ := testTable(t, 10)
	if _, err := BuildIndex(tab, "missing"); err == nil {
		t.Fatal("BuildIndex on unknown column succeeded")
	}
}

func TestEstimateHeightGrowsWithSize(t *testing.T) {
	small, _ := testTable(t, 10)
	ixSmall, _ := BuildIndex(small, "v")
	big, _ := testTable(t, 100000)
	ixBig, _ := BuildIndex(big, "v")
	if ixSmall.EstimateHeight() < 1 {
		t.Fatal("height < 1")
	}
	if ixBig.EstimateHeight() < ixSmall.EstimateHeight() {
		t.Fatalf("height not monotone: big=%d small=%d", ixBig.EstimateHeight(), ixSmall.EstimateHeight())
	}
}

func TestDatabaseIndexLifecycle(t *testing.T) {
	tab, meta := testTable(t, 50)
	s := &schema.Schema{Name: "db", Tables: []*schema.Table{meta}}
	db := NewDatabase(s)
	db.AddTable(tab)
	if got := db.IndexedColumns(); len(got) != 0 {
		t.Fatalf("IndexedColumns() = %v before EnsureIndex", got)
	}
	ix1, err := db.EnsureIndex("t", "v")
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := db.EnsureIndex("t", "v")
	if err != nil {
		t.Fatal(err)
	}
	if ix1 != ix2 {
		t.Fatal("EnsureIndex rebuilt an existing index")
	}
	if got := db.IndexedColumns(); len(got) != 1 || got[0] != "t.v" {
		t.Fatalf("IndexedColumns() = %v", got)
	}
	if _, err := db.EnsureIndex("missing", "v"); err == nil {
		t.Fatal("EnsureIndex on unknown table succeeded")
	}
}

func TestAddTablePanicsOnForeignTable(t *testing.T) {
	s := &schema.Schema{Name: "db", Tables: nil}
	db := NewDatabase(s)
	defer func() {
		if recover() == nil {
			t.Fatal("AddTable did not panic for table outside schema")
		}
	}()
	tab, _ := testTable(t, 1)
	db.AddTable(tab)
}

// Property: for random values and bounds, Range never returns a value
// outside [lo, hi].
func TestIndexRangeBoundsProperty(t *testing.T) {
	f := func(vals []int16, lo8, hi8 int8) bool {
		if len(vals) == 0 {
			return true
		}
		meta := &schema.Table{
			Name:     "p",
			Columns:  []schema.Column{{Name: "v", Type: schema.TypeInt}},
			RowCount: len(vals),
		}
		meta.ComputePages()
		tab := NewTable(meta)
		for _, v := range vals {
			tab.Cols[0].Ints = append(tab.Cols[0].Ints, int64(v))
		}
		ix, err := BuildIndex(tab, "v")
		if err != nil {
			return false
		}
		lo, hi := float64(lo8), float64(hi8)
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, r := range ix.Range(lo, hi) {
			v := tab.Cols[0].AsFloat(int(r))
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
