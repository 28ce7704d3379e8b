package engine

import (
	"testing"

	"amnesiadb/internal/expr"
)

func TestGroupByValue(t *testing.T) {
	tb := tbl(t, 5, 5, 7, 9, 9, 9)
	ex := New(tb)
	groups, err := ex.GroupBy("a", expr.True{}, ScanActive, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Key != 5 || groups[0].Rows != 2 || groups[0].Sum != 10 {
		t.Fatalf("group 0 = %+v", groups[0])
	}
	if groups[2].Key != 9 || groups[2].Rows != 3 || groups[2].Avg != 9 {
		t.Fatalf("group 2 = %+v", groups[2])
	}
}

func TestGroupByValueRespectsAmnesia(t *testing.T) {
	tb := tbl(t, 5, 5, 7)
	tb.Forget(2) // the only 7
	ex := New(tb)
	groups, err := ex.GroupBy("a", expr.True{}, ScanActive, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Key != 5 {
		t.Fatalf("forgotten group survived: %+v", groups)
	}
	all, err := ex.GroupBy("a", expr.True{}, ScanAll, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("complete grouping = %+v", all)
	}
}

func TestGroupByBucket(t *testing.T) {
	tb := tbl(t, 0, 5, 10, 15, 25)
	ex := New(tb)
	groups, err := ex.GroupBy("a", expr.True{}, ScanActive, 10)
	if err != nil {
		t.Fatal(err)
	}
	// buckets: [0,10): {0,5}, [10,20): {10,15}, [20,30): {25}
	if len(groups) != 3 {
		t.Fatalf("buckets = %+v", groups)
	}
	if groups[0].Key != 0 || groups[0].Rows != 2 {
		t.Fatalf("bucket 0 = %+v", groups[0])
	}
	if groups[1].Key != 10 || groups[1].Min != 10 || groups[1].Max != 15 {
		t.Fatalf("bucket 10 = %+v", groups[1])
	}
	if groups[2].Key != 20 || groups[2].Rows != 1 {
		t.Fatalf("bucket 20 = %+v", groups[2])
	}
}

func TestGroupByBucketPredicate(t *testing.T) {
	tb := tbl(t, 1, 11, 21, 31)
	ex := New(tb)
	groups, err := ex.GroupBy("a", expr.NewRange(10, 30), ScanActive, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0].Key != 10 || groups[1].Key != 20 {
		t.Fatalf("predicated buckets = %+v", groups)
	}
}

func TestGroupByBucketWidthValidation(t *testing.T) {
	ex := New(tbl(t, 1))
	if _, err := ex.GroupBy("a", expr.True{}, ScanActive, -1); err == nil {
		t.Fatal("negative width accepted")
	}
}

func TestGroupByTouches(t *testing.T) {
	tb := tbl(t, 1, 2)
	ex := New(tb)
	if _, err := ex.GroupBy("a", expr.True{}, ScanActive, 0); err != nil {
		t.Fatal(err)
	}
	if tb.AccessCount(0) != 1 || tb.AccessCount(1) != 1 {
		t.Fatal("group-by did not feed access frequencies")
	}
}

func TestGroupByUnknownColumn(t *testing.T) {
	ex := New(tbl(t, 1))
	if _, err := ex.GroupBy("zz", expr.True{}, ScanActive, 0); err == nil {
		t.Fatal("unknown column accepted")
	}
}
