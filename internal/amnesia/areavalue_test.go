package amnesia

import (
	"sort"
	"testing"

	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

func randomValueTable(t *testing.T, n int, seed uint64) *table.Table {
	t.Helper()
	src := xrand.New(seed)
	tb := table.New("t", "a")
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = src.Int63n(100000)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestAreaValueBudget(t *testing.T) {
	tb := randomValueTable(t, 1000, 1)
	a := NewAreaValue(xrand.New(2), "a", 3)
	if got := a.Forget(tb, 400); len(got) != 400 {
		t.Fatalf("forgot %d", len(got))
	}
	if tb.ActiveCount() != 600 {
		t.Fatalf("active = %d", tb.ActiveCount())
	}
}

func TestAreaValueClustersInValueSpace(t *testing.T) {
	tb := randomValueTable(t, 1000, 3)
	a := NewAreaValue(xrand.New(4), "a", 3)
	a.Forget(tb, 400)
	// Sort all tuples by value and count forgotten runs in value order;
	// clustering must produce far fewer runs than the ~240 expected from
	// uniform forgetting.
	c := tb.MustColumn("a")
	type vp struct {
		v      int64
		active bool
	}
	arr := make([]vp, tb.Len())
	for i := range arr {
		arr[i] = vp{v: c.Get(i), active: tb.IsActive(i)}
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i].v < arr[j].v })
	runs, inRun := 0, false
	for _, e := range arr {
		if !e.active {
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if runs > 120 {
		t.Fatalf("value-space forgotten runs = %d; not clustered", runs)
	}
}

func TestAreaValueExtentsValid(t *testing.T) {
	tb := randomValueTable(t, 500, 5)
	a := NewAreaValue(xrand.New(6), "a", 2)
	a.Forget(tb, 100)
	areas := a.Areas()
	if len(areas) == 0 {
		t.Fatal("no areas recorded")
	}
	for _, e := range areas {
		if e[0] > e[1] {
			t.Fatalf("inverted extent %v", e)
		}
	}
}

func TestAreaValueAcrossBatchesKeepsGrowing(t *testing.T) {
	tb := randomValueTable(t, 500, 7)
	a := NewAreaValue(xrand.New(8), "a", 2)
	a.Forget(tb, 100)
	first := a.Areas()
	a.Forget(tb, 100)
	second := a.Areas()
	if len(second) == 0 {
		t.Fatal("areas vanished")
	}
	// Extents never shrink for surviving areas.
	for i := range first {
		found := false
		for j := range second {
			if second[j][0] <= first[i][0] && second[j][1] >= first[i][1] {
				found = true
				break
			}
		}
		_ = found // areas may be rotated out when K is exceeded; no hard claim
	}
}

func TestAreaValueConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil src":   func() { NewAreaValue(nil, "a", 1) },
		"empty col": func() { NewAreaValue(xrand.New(1), "", 1) },
		"k=0":       func() { NewAreaValue(xrand.New(1), "a", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
