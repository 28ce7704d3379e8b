package table

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"amnesiadb/internal/xrand"
)

func single(t *testing.T, batches ...[]int64) *Table {
	t.Helper()
	tb := New("t", "a")
	for _, b := range batches {
		if _, err := tb.AppendSingleColumn(b); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestNewValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"no columns": func() { New("t") },
		"dup column": func() { New("t", "a", "a") },
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

func TestAppendBatchGrowsActive(t *testing.T) {
	tb := single(t, []int64{1, 2, 3}, []int64{4, 5})
	if tb.Len() != 5 || tb.ActiveCount() != 5 {
		t.Fatalf("len=%d active=%d", tb.Len(), tb.ActiveCount())
	}
	if tb.Batches() != 2 {
		t.Fatalf("batches = %d", tb.Batches())
	}
	if tb.InsertBatch(0) != 0 || tb.InsertBatch(3) != 1 {
		t.Fatalf("insertBatch wrong: %d %d", tb.InsertBatch(0), tb.InsertBatch(3))
	}
}

func TestAppendBatchErrors(t *testing.T) {
	tb := New("t", "a", "b")
	if _, err := tb.AppendBatch(map[string][]int64{"a": {1}}); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := tb.AppendBatch(map[string][]int64{"a": {1}, "c": {2}}); err == nil {
		t.Fatal("wrong column name accepted")
	}
	if _, err := tb.AppendBatch(map[string][]int64{"a": {1, 2}, "b": {3}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if _, err := tb.AppendSingleColumn([]int64{1}); err == nil {
		t.Fatal("AppendSingleColumn on 2-column table accepted")
	}
}

func TestColumnLookup(t *testing.T) {
	tb := New("t", "a", "b")
	if _, err := tb.Column("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Column("zz"); err == nil {
		t.Fatal("unknown column accepted")
	}
	cols := tb.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("Columns = %v", cols)
	}
}

func TestForgetRememberCounts(t *testing.T) {
	tb := single(t, []int64{1, 2, 3, 4})
	tb.Forget(1)
	tb.Forget(2)
	if tb.ActiveCount() != 2 || tb.ForgottenCount() != 2 {
		t.Fatalf("active=%d forgotten=%d", tb.ActiveCount(), tb.ForgottenCount())
	}
	if tb.IsActive(1) || !tb.IsActive(0) {
		t.Fatal("IsActive wrong")
	}
	tb.Remember(1)
	if tb.ActiveCount() != 3 {
		t.Fatalf("active after Remember = %d", tb.ActiveCount())
	}
	tb.Forget(1)
	tb.Forget(1) // double-forget is a no-op
	if tb.ForgottenCount() != 2 {
		t.Fatalf("double forget changed count: %d", tb.ForgottenCount())
	}
}

func TestTouchSaturates(t *testing.T) {
	tb := single(t, []int64{9})
	for i := 0; i < 5; i++ {
		tb.Touch(0)
	}
	if tb.AccessCount(0) != 5 {
		t.Fatalf("access count = %d", tb.AccessCount(0))
	}
	tb.TouchMany([]int32{0, 0})
	if tb.AccessCount(0) != 7 {
		t.Fatalf("access count after TouchMany = %d", tb.AccessCount(0))
	}
}

// TestTouchRangeMatchesTouchMany checks that an aggregate kernel
// folding inside TouchRange, a block at a time, leaves the same counts
// as TouchMany over the rows it folded: on both sides of a block
// boundary, in blocks past the 64-stripe wrap, and with a count already
// at the uint32 ceiling staying there. A range spanning two blocks is
// refused.
func TestTouchRangeMatchesTouchMany(t *testing.T) {
	const sat = TouchBlock - 2
	ranges := []struct {
		start, end int
		rows       []int
	}{
		{TouchBlock - 40, TouchBlock, []int{TouchBlock - 40, sat, TouchBlock - 1}},
		{TouchBlock, TouchBlock + 9, []int{TouchBlock, TouchBlock + 8}},
		{64*TouchBlock + 5, 65 * TouchBlock, []int{64*TouchBlock + 5, 64*TouchBlock + 700, 65*TouchBlock - 1}},
		{65 * TouchBlock, 65*TouchBlock + 3, []int{65 * TouchBlock}},
		{66 * TouchBlock, 66*TouchBlock + 100, []int{66*TouchBlock + 99}},
		{7, 7, nil},
	}
	// The rows to touch hold 1, every other row 0; the kernel folds [1, 2).
	vals := make([]int64, 66*TouchBlock+100)
	var pos []int32
	for _, r := range ranges {
		for _, row := range r.rows {
			vals[row] = 1
			pos = append(pos, int32(row))
		}
	}
	byRange, byPos := single(t, vals), single(t, vals)
	byRange.accessCount[sat], byPos.accessCount[sat] = ^uint32(0), ^uint32(0)
	c := byRange.MustColumn("a")
	for _, r := range ranges {
		byRange.TouchRange(r.start, r.end, func(counts []uint32) {
			if len(counts) != r.end-r.start {
				t.Fatalf("TouchRange(%d, %d) lent %d counts", r.start, r.end, len(counts))
			}
			if n, _, _, _ := c.AggregateRangeIn(1, 2, nil, r.start, r.end, counts); n != len(r.rows) {
				t.Fatalf("[%d, %d) folded %d rows, want %d", r.start, r.end, n, len(r.rows))
			}
		})
	}
	byPos.TouchMany(pos)
	for i, want := range byPos.accessCount {
		if got := byRange.accessCount[i]; got != want {
			t.Fatalf("row %d: TouchRange count %d, TouchMany count %d", i, got, want)
		}
	}
	if got := byRange.AccessCount(sat); got != ^uint32(0) {
		t.Fatalf("saturated count moved to %d", got)
	}
	if got := byRange.AccessCount(65*TouchBlock - 1); got != 1 {
		t.Fatalf("row %d touched %d times, want 1", 65*TouchBlock-1, got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("TouchRange across a block boundary did not panic")
			}
		}()
		byRange.TouchRange(TouchBlock-1, TouchBlock+1, func([]uint32) {})
	}()
}

// TestStripesApartAcrossMorsels pins the stripe map: the workers of one
// aggregate walk different 64-block morsels in step, block j of each,
// and no two of them share a stripe; within a morsel, consecutive
// blocks use consecutive stripes.
func TestStripesApartAcrossMorsels(t *testing.T) {
	for j := 0; j < touchStripes; j++ {
		seen := map[int]int{}
		for m := 0; m < touchStripes; m++ {
			s := stripeOf((m*touchStripes + j) * TouchBlock)
			if other, dup := seen[s]; dup {
				t.Fatalf("block %d of morsels %d and %d share stripe %d", j, other, m, s)
			}
			seen[s] = m
		}
	}
	if a, b := stripeOf(TouchBlock-1), stripeOf(TouchBlock); a == b {
		t.Fatalf("blocks 0 and 1 share stripe %d", a)
	}
}

func TestActiveForgottenIndices(t *testing.T) {
	tb := single(t, []int64{1, 2, 3, 4, 5})
	tb.ForgetMany([]int{0, 4})
	a := tb.ActiveIndices()
	f := tb.ForgottenIndices()
	if len(a) != 3 || a[0] != 1 || a[2] != 3 {
		t.Fatalf("ActiveIndices = %v", a)
	}
	if len(f) != 2 || f[0] != 0 || f[1] != 4 {
		t.Fatalf("ForgottenIndices = %v", f)
	}
}

func TestActivePerBatch(t *testing.T) {
	tb := single(t, []int64{1, 2}, []int64{3, 4, 5})
	tb.Forget(0)
	tb.Forget(4)
	active, total := tb.ActivePerBatch()
	if total[0] != 2 || total[1] != 3 {
		t.Fatalf("total = %v", total)
	}
	if active[0] != 1 || active[1] != 2 {
		t.Fatalf("active = %v", active)
	}
}

func TestVacuumCompactsEverything(t *testing.T) {
	tb := single(t, []int64{10, 20}, []int64{30, 40, 50})
	tb.Touch(2)
	tb.Touch(2)
	tb.ForgetMany([]int{0, 3})
	remap := tb.Vacuum()
	if tb.Len() != 3 || tb.ActiveCount() != 3 {
		t.Fatalf("post-vacuum len=%d active=%d", tb.Len(), tb.ActiveCount())
	}
	c := tb.MustColumn("a")
	want := []int64{20, 30, 50}
	for i, w := range want {
		if c.Get(i) != w {
			t.Fatalf("value %d = %d, want %d", i, c.Get(i), w)
		}
	}
	// metadata must move with the tuples
	if tb.InsertBatch(0) != 0 || tb.InsertBatch(1) != 1 {
		t.Fatalf("insert batches = %d %d", tb.InsertBatch(0), tb.InsertBatch(1))
	}
	if tb.AccessCount(1) != 2 {
		t.Fatalf("access count moved wrong: %d", tb.AccessCount(1))
	}
	if remap[0] != -1 || remap[2] != 1 || remap[4] != 2 {
		t.Fatalf("remap = %v", remap)
	}
}

func TestOldestActive(t *testing.T) {
	tb := single(t, []int64{1, 2, 3})
	if tb.OldestActive() != 0 {
		t.Fatalf("OldestActive = %d", tb.OldestActive())
	}
	tb.Forget(0)
	tb.Forget(1)
	if tb.OldestActive() != 2 {
		t.Fatalf("OldestActive = %d", tb.OldestActive())
	}
	tb.Forget(2)
	if tb.OldestActive() != -1 {
		t.Fatalf("OldestActive on empty = %d", tb.OldestActive())
	}
}

func TestPropertyForgetNeverChangesLen(t *testing.T) {
	f := func(vals []int64, forget []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		tb := New("t", "a")
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			return false
		}
		for _, fi := range forget {
			tb.Forget(int(fi) % len(vals))
		}
		return tb.Len() == len(vals) &&
			tb.ActiveCount()+tb.ForgottenCount() == tb.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVacuumKeepsActiveValues(t *testing.T) {
	src := xrand.New(77)
	f := func(vals []int64, forget []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		tb := New("t", "a")
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			return false
		}
		for _, fi := range forget {
			tb.Forget(int(fi) % len(vals))
		}
		var want []int64
		for i, v := range vals {
			if tb.IsActive(i) {
				want = append(want, v)
			}
		}
		tb.Vacuum()
		if tb.Len() != len(want) {
			return false
		}
		c := tb.MustColumn("a")
		for i, w := range want {
			if c.Get(i) != w {
				return false
			}
		}
		_ = src
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendBatch(b *testing.B) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	b.ResetTimer()
	tb := New("t", "a")
	for i := 0; i < b.N; i++ {
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBatchStart(t *testing.T) {
	tb := New("t", "a")
	for _, n := range []int{3, 0, 70, 5} { // batch 1 is empty
		if _, err := tb.AppendSingleColumn(make([]int64, n)); err != nil {
			t.Fatal(err)
		}
	}
	for b, want := range map[int32]int{-2: 0, 0: 0, 1: 3, 2: 3, 3: 73, 4: 78, 9: 78} {
		if got := tb.BatchStart(b); got != want {
			t.Errorf("BatchStart(%d) = %d, want %d", b, got, want)
		}
	}
	tb.Forget(1)
	tb.Forget(40)
	// Vacuum renumbers positions but keeps them in batch order.
	tb.Vacuum()
	if got := tb.BatchStart(2); got != 2 {
		t.Fatalf("BatchStart(2) after Vacuum = %d, want 2", got)
	}
}

// TestTouchManySetsBusyRunsAside: while another reader holds one
// block's stripe, TouchMany touches the runs in every other block
// first, then waits for that stripe and touches the runs it set aside.
// The list is unsorted and repeats rows, so runs of one block recur.
func TestTouchManySetsBusyRunsAside(t *testing.T) {
	tb := single(t, make([]int64, 3*TouchBlock))
	rows := []int32{2*TouchBlock + 5, 5, TouchBlock + 3, 5, 2*TouchBlock + 5, TouchBlock + 3, 7}
	want := map[int]uint32{5: 2, 7: 1, TouchBlock + 3: 2, 2*TouchBlock + 5: 2}
	held := &tb.stripes[stripeOf(TouchBlock)]
	held.Lock()
	done := make(chan struct{})
	go func() {
		tb.TouchMany(rows)
		close(done)
	}()
	count := func(row int) uint32 {
		mu := &tb.stripes[stripeOf(row)]
		mu.Lock()
		defer mu.Unlock()
		return tb.accessCount[row]
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, row := range []int{5, 7, 2*TouchBlock + 5} {
		for count(row) != want[row] {
			if time.Now().After(deadline) {
				t.Fatalf("row %d not touched while block 1's stripe was held", row)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := tb.accessCount[TouchBlock+3]; got != 0 {
		t.Fatalf("row %d touched %d times under a held stripe", TouchBlock+3, got)
	}
	held.Unlock()
	<-done
	for row, n := range want {
		if got := tb.AccessCount(row); got != n {
			t.Fatalf("row %d: access count %d, want %d", row, got, n)
		}
	}
}

// detach returns a copy of s whose slices share nothing with the table
// it came from, as a decoded snapshot does.
func detach(s State) State {
	d := s
	d.Columns = append([]string(nil), s.Columns...)
	d.Values = nil
	for _, vs := range s.Values {
		d.Values = append(d.Values, append([]int64(nil), vs...))
	}
	d.Batch = append([]int64(nil), s.Batch...)
	d.Active = append([]byte(nil), s.Active...)
	d.Access = append([]int64(nil), s.Access...)
	return d
}

// TestStateRestoreRoundTrip: Restore(State()) rebuilds the same table,
// a batch emptied by Vacuum and saturated access counts included, and
// the restored table goes on exactly as the original does.
func TestStateRestoreRoundTrip(t *testing.T) {
	tb := New("t", "a", "b")
	for _, n := range []int{5, 3, 70} {
		a, b := make([]int64, n), make([]int64, n)
		for i := range a {
			a[i], b[i] = int64(tb.Len()+i), -int64(tb.Len()+i)
		}
		if _, err := tb.AppendBatch(map[string][]int64{"a": a, "b": b}); err != nil {
			t.Fatal(err)
		}
	}
	tb.ForgetMany([]int{5, 6, 7, 8, 20, 71})
	tb.Vacuum() // batch 1 is now empty
	tb.Touch(3)
	tb.Touch(3)
	tb.TouchRange(10, 12, func(counts []uint32) {
		for i := range counts {
			counts[i] = ^uint32(0)
		}
	})
	tb.Forget(0)

	back, err := Restore(detach(tb.State()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.State(), tb.State()) {
		t.Fatalf("restored state differs:\n got %+v\nwant %+v", back.State(), tb.State())
	}
	if back.Batches() != 3 || back.ActiveCount() != tb.ActiveCount() {
		t.Fatalf("restored batches=%d active=%d, want 3 and %d", back.Batches(), back.ActiveCount(), tb.ActiveCount())
	}

	for _, x := range []*Table{tb, back} {
		if _, err := x.AppendBatch(map[string][]int64{"a": {100, 101}, "b": {-100, -101}}); err != nil {
			t.Fatal(err)
		}
		x.Touch(x.Len() - 1)
		x.Touch(10) // saturated: stays at the ceiling
		x.Forget(1)
	}
	if got := back.InsertBatch(back.Len() - 1); got != 3 {
		t.Fatalf("batch appended after restore has id %d, want 3", got)
	}
	if !reflect.DeepEqual(back.State(), tb.State()) {
		t.Fatalf("states diverge after the same appends, touches and forgets:\n got %+v\nwant %+v", back.State(), tb.State())
	}
}

// TestRestoreRejectsInvalidState: a state no sequence of appends,
// forgets and touches produces is an error, never a panic or a table.
func TestRestoreRejectsInvalidState(t *testing.T) {
	valid := func() State {
		return State{
			Name:    "t",
			Columns: []string{"a", "b"},
			Values:  [][]int64{{1, 2, 3}, {4, 5, 6}},
			Batch:   []int64{0, 0, 2},
			Batches: 3,
			Active:  []byte{0b101},
			Access:  []int64{0, 7, math.MaxUint32},
		}
	}
	if _, err := Restore(valid()); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*State){
		"no columns":             func(s *State) { s.Columns, s.Values = nil, nil },
		"duplicate column":       func(s *State) { s.Columns[1] = "a" },
		"missing value slice":    func(s *State) { s.Values = s.Values[:1] },
		"short column":           func(s *State) { s.Values[1] = s.Values[1][:2] },
		"long column":            func(s *State) { s.Values[0] = append(s.Values[0], 9) },
		"short access":           func(s *State) { s.Access = s.Access[:2] },
		"nil bitmap":             func(s *State) { s.Active = nil },
		"long bitmap":            func(s *State) { s.Active = append(s.Active, 0) },
		"negative batch count":   func(s *State) { s.Batches = -1 },
		"batch count over int32": func(s *State) { s.Batches = math.MaxInt32 + 1 },
		"descending batch ids":   func(s *State) { s.Batch[1], s.Batch[2] = 2, 1 },
		"batch id at count":      func(s *State) { s.Batch[2] = 3 },
		"negative batch id":      func(s *State) { s.Batch[0] = -1 },
		"negative access":        func(s *State) { s.Access[0] = -1 },
		"access over uint32":     func(s *State) { s.Access[2] = math.MaxUint32 + 1 },
	} {
		t.Run(name, func(t *testing.T) {
			s := valid()
			corrupt(&s)
			if tb, err := Restore(s); err == nil {
				t.Fatalf("Restore accepted the state, built a %d-tuple table", tb.Len())
			}
		})
	}
}
