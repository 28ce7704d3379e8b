package engine

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"amnesiadb/internal/column"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// parallelTestRows spans four morsels at the default block size, so a
// forced-parallel scan genuinely splits across workers.
const parallelTestRows = 4 * MorselBlocks * column.DefaultBlockSize

// parallelTable builds a table large enough for several morsels and
// applies the named active-bitmap shape.
func parallelTable(t testing.TB, shape string) *table.Table {
	t.Helper()
	src := xrand.New(7)
	tb := table.New("t", "a")
	vals := make([]int64, parallelTestRows)
	for i := range vals {
		vals[i] = src.Int63n(1 << 17)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	switch shape {
	case "all-active":
	case "every-other":
		for i := 0; i < tb.Len(); i += 2 {
			tb.Forget(i)
		}
	case "block-runs":
		// Whole blocks forgotten, exercising the word-parallel skip of
		// fully clear bitmap words.
		for i := 0; i < tb.Len(); i++ {
			if (i/1024)%3 == 0 {
				tb.Forget(i)
			}
		}
	case "random":
		for i := 0; i < tb.Len(); i++ {
			if src.Int63n(10) < 4 {
				tb.Forget(i)
			}
		}
	case "all-forgotten":
		for i := 0; i < tb.Len(); i++ {
			tb.Forget(i)
		}
	default:
		t.Fatalf("unknown shape %q", shape)
	}
	return tb
}

// equivalencePredicates covers exact bounds (pure range scans), inexact
// bounds (filter kernel engaged), disjunctions, negation and full scans.
func equivalencePredicates() map[string]expr.Expr {
	return map[string]expr.Expr{
		"range":      expr.NewRange(1<<14, 1<<16),
		"full":       expr.True{},
		"eq":         expr.Cmp{Op: expr.EQ, Val: 12345},
		"ne-inexact": expr.Cmp{Op: expr.NE, Val: 500},
		"or-inexact": expr.Or{L: expr.NewRange(0, 1000), R: expr.NewRange(1<<16, 1<<17)},
		"not":        expr.Not{X: expr.NewRange(1000, 1<<16)},
		"empty":      expr.NewRange(1<<20, 1<<21),
	}
}

var bitmapShapes = []string{"all-active", "every-other", "block-runs", "random", "all-forgotten"}

func TestParallelSelectEquivalence(t *testing.T) {
	for _, shape := range bitmapShapes {
		tb := parallelTable(t, shape)
		serial := NewSilent(tb)
		serial.SetParallelism(1)
		parallel := NewSilent(tb)
		parallel.SetParallelism(4)
		for name, pred := range equivalencePredicates() {
			for _, mode := range []ScanMode{ScanActive, ScanAll} {
				want, err := serial.Select("a", pred, mode)
				if err != nil {
					t.Fatal(err)
				}
				got, err := parallel.Select("a", pred, mode)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Fatalf("%s/%s/%s: parallel rows diverge: %d vs %d rows", shape, name, mode, len(want.Rows), len(got.Rows))
				}
				if !reflect.DeepEqual(want.Values, got.Values) {
					t.Fatalf("%s/%s/%s: parallel values diverge", shape, name, mode)
				}
				for i := 1; i < len(got.Rows); i++ {
					if got.Rows[i] <= got.Rows[i-1] {
						t.Fatalf("%s/%s/%s: parallel rows not in insertion order at %d", shape, name, mode, i)
					}
				}
			}
		}
	}
}

func TestParallelAggregateEquivalence(t *testing.T) {
	for _, shape := range bitmapShapes {
		tb := parallelTable(t, shape)
		serial := NewSilent(tb)
		serial.SetParallelism(1)
		parallel := NewSilent(tb)
		parallel.SetParallelism(4)
		for name, pred := range equivalencePredicates() {
			for _, mode := range []ScanMode{ScanActive, ScanAll} {
				want, errS := serial.Aggregate("a", pred, mode)
				got, errP := parallel.Aggregate("a", pred, mode)
				if (errS == nil) != (errP == nil) {
					t.Fatalf("%s/%s/%s: error mismatch: serial %v, parallel %v", shape, name, mode, errS, errP)
				}
				if errS != nil {
					if errS != ErrNoRows || errP != ErrNoRows {
						t.Fatalf("%s/%s/%s: unexpected errors %v / %v", shape, name, mode, errS, errP)
					}
					continue
				}
				if want.Rows != got.Rows || want.Sum != got.Sum || want.Min != got.Min || want.Max != got.Max || want.Avg != got.Avg {
					t.Fatalf("%s/%s/%s: aggregate diverges: %+v vs %+v", shape, name, mode, want, got)
				}
			}
		}
	}
}

// TestParallelAggregateTouchesLikeSerial checks the feedback path: a
// touching parallel aggregate leaves the same access counts as the
// serial one — every contributing row touched exactly once per query.
func TestParallelAggregateTouchesLikeSerial(t *testing.T) {
	pred := expr.NewRange(0, 1<<16)
	counts := func(par int) []uint32 {
		tb := parallelTable(t, "every-other")
		ex := New(tb)
		ex.SetParallelism(par)
		if _, err := ex.Aggregate("a", pred, ScanActive); err != nil {
			t.Fatal(err)
		}
		return accessCounts(tb)
	}
	if want, got := counts(1), counts(4); !reflect.DeepEqual(want, got) {
		t.Fatal("parallel aggregate's access counts diverge from serial")
	}
}

// TestAggregateMatchesSelectAtEverySize sweeps table sizes around the
// word, morsel and auto-parallel boundaries: at every parallelism the
// aggregate equals the fold of Select's values and leaves the access
// counts a Select of the same predicate leaves, for exact and inexact
// bounds alike.
func TestAggregateMatchesSelectAtEverySize(t *testing.T) {
	morsel := MorselBlocks * column.DefaultBlockSize
	sizes := []int{1, 63, 64, 65, morsel - 1, morsel, morsel + 1}
	if !testing.Short() {
		sizes = append(sizes, parallelMinRows+1)
	}
	preds := []expr.Expr{expr.NewRange(1000, 6000), expr.Cmp{Op: expr.NE, Val: 137}}
	for _, n := range sizes {
		for _, pred := range preds {
			ref := vectorTable(t, n, 10000, 5)
			sel, err := New(ref).Select("a", pred, ScanActive)
			if err != nil {
				t.Fatal(err)
			}
			want := rowAggregate(ref, "a", pred, ScanActive)
			wantCounts := accessCounts(ref)
			for _, par := range []int{1, 2, 0} {
				tb := vectorTable(t, n, 10000, 5)
				ex := New(tb)
				ex.SetParallelism(par)
				got, err := ex.Aggregate("a", pred, ScanActive)
				if want == nil {
					if err != ErrNoRows {
						t.Fatalf("n=%d pred=%s par=%d: want ErrNoRows, got %v", n, pred, par, err)
					}
				} else if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d pred=%s par=%d: aggregate %+v (%v), want %+v over %d rows", n, pred, par, got, err, want, sel.Count())
				}
				if !reflect.DeepEqual(accessCounts(tb), wantCounts) {
					t.Fatalf("n=%d pred=%s par=%d: access counts diverge from Select's", n, pred, par)
				}
			}
		}
	}
}

// TestConcurrentAggregatesAndSelectsTouchExactly races touching
// aggregates (one TouchRange per block folded), inexact-predicate
// aggregates (TouchMany per batch) and touching selects (one TouchMany
// per query) on one four-morsel table, at parallelism 1 to 4 on a
// four-wide pool so that workers of different queries share stripes:
// the final access counts are the serial sum — each query adds one to
// every row it matched.
func TestConcurrentAggregatesAndSelectsTouchExactly(t *testing.T) {
	tb := parallelTable(t, "random")
	pool := sched.New(4)
	t.Cleanup(pool.Close)
	pred := expr.NewRange(1<<14, 1<<16)
	inexact := expr.Or{L: expr.NewRange(1<<14, 1<<15), R: expr.NewRange(3<<14, 1<<16)}
	if _, _, exact := inexact.Bounds(); exact {
		t.Fatal("the or-predicate's bounds are exact; the inexact path goes untested")
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ex := New(tb)
			ex.SetScheduler(pool)
			ex.SetParallelism(1 + g%4)
			for i := 0; i < rounds; i++ {
				var err error
				switch (g + i) % 3 {
				case 0:
					_, err = ex.Aggregate("a", pred, ScanActive)
				case 1:
					_, err = ex.Aggregate("a", inexact, ScanActive)
				default:
					_, err = ex.Select("a", pred, ScanActive)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	want := make([]uint32, tb.Len())
	for g := 0; g < goroutines; g++ {
		for i := 0; i < rounds; i++ {
			p := expr.Expr(pred)
			if (g+i)%3 == 1 {
				p = inexact
			}
			for _, r := range rowSelect(tb, "a", p, ScanActive).Rows {
				want[r]++
			}
		}
	}
	if !reflect.DeepEqual(accessCounts(tb), want) {
		t.Fatal("concurrent touches lost or duplicated access counts")
	}
}

func TestParallelGroupByEquivalence(t *testing.T) {
	tb := parallelTable(t, "random")
	serial := NewSilent(tb)
	serial.SetParallelism(1)
	parallel := NewSilent(tb)
	parallel.SetParallelism(4)
	pred := expr.Cmp{Op: expr.NE, Val: 77}
	for _, width := range []int64{0, 1000} {
		want, errS := serial.GroupBy("a", pred, ScanActive, width)
		got, errP := parallel.GroupBy("a", pred, ScanActive, width)
		if errS != nil || errP != nil {
			t.Fatal(errS, errP)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("width %d: parallel group-by diverges: %d vs %d groups", width, len(want), len(got))
		}
	}
}

func TestParallelPrecisionEquivalence(t *testing.T) {
	tb := parallelTable(t, "random")
	serial := NewSilent(tb)
	serial.SetParallelism(1)
	parallel := NewSilent(tb)
	parallel.SetParallelism(4)
	for name, pred := range equivalencePredicates() {
		rfS, mfS, pfS, err := serial.Precision("a", pred)
		if err != nil {
			t.Fatal(err)
		}
		rfP, mfP, pfP, err := parallel.Precision("a", pred)
		if err != nil {
			t.Fatal(err)
		}
		if rfS != rfP || mfS != mfP || pfS != pfP {
			t.Fatalf("%s: precision diverges: (%d,%d,%v) vs (%d,%d,%v)", name, rfS, mfS, pfS, rfP, mfP, pfP)
		}
	}
}

// TestSilentPrecisionAllocatesNothing pins the counting-only Precision
// path: a silent executor's precision sweep must not materialize rows.
func TestSilentPrecisionAllocatesNothing(t *testing.T) {
	tb := parallelTable(t, "every-other")
	ex := NewSilent(tb)
	ex.SetParallelism(1)
	pred := expr.NewRange(0, 1<<16)
	if _, _, _, err := ex.Precision("a", pred); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, _, err := ex.Precision("a", pred); err != nil {
			t.Fatal(err)
		}
	})
	// Two counting passes, each one morsel-loop closure, its tally and
	// the dispatcher's task counter and step closure, plus the predicate
	// boxed once for them.
	if allocs > 9 {
		t.Fatalf("silent Precision allocated %v objects per run, want O(1)", allocs)
	}
}

// TestTouchingPrecisionTouchesLikeSelect pins Precision's feedback
// path: its active pass folds the matches instead of collecting them,
// so a touching Precision over a 1 Mi-row table allocates a small
// constant number of times, and it leaves exactly the access counts a
// Select of the same predicate leaves on a twin table — on one table,
// and over parts the way a partitioned table's shards are read.
func TestTouchingPrecisionTouchesLikeSelect(t *testing.T) {
	const rows = 1 << 20
	twins := func(n, size int, seed uint64) (prec, sel []*table.Table) {
		for i := range n {
			prec = append(prec, vectorTable(t, size, 10000, seed+uint64(i)))
			sel = append(sel, vectorTable(t, size, 10000, seed+uint64(i)))
		}
		return prec, sel
	}
	preds := map[string]expr.Expr{
		"exact":   expr.NewRange(100, 5000),
		"inexact": expr.Not{X: expr.NewRange(2000, 8000)},
	}
	for _, layout := range []struct {
		name        string
		parts, size int
	}{{"flat", 1, rows}, {"parts", 4, rows / 4}} {
		for name, pred := range preds {
			prec, sel := twins(layout.parts, layout.size, 71)
			rf, _, _, err := New(prec[0]).PrecisionParts(prec, "a", pred)
			if err != nil {
				t.Fatal(err)
			}
			selected := 0
			for _, tb := range sel {
				res, err := New(tb).Select("a", pred, ScanActive)
				if err != nil {
					t.Fatal(err)
				}
				selected += res.Count()
			}
			if rf != selected {
				t.Fatalf("%s/%s: rf = %d, Select returned %d rows", layout.name, name, rf, selected)
			}
			for i := range prec {
				if !slices.Equal(accessCounts(prec[i]), accessCounts(sel[i])) {
					t.Fatalf("%s/%s: part %d's access counts diverge from Select's", layout.name, name, i)
				}
			}
		}
	}

	tb := vectorTable(t, rows, 10000, 73)
	ex := New(tb)
	pred := preds["exact"]
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, _, err := ex.Precision("a", pred); err != nil {
			t.Fatal(err)
		}
	})
	// Parts, cursor, partials, the barrier's task list and closures,
	// and the pool query when the knob resolves to several workers.
	if allocs > 16 {
		t.Fatalf("touching Precision allocated %v objects per run over %d rows, want a small constant", allocs, rows)
	}
}

// TestTouchingGroupByTouchesLikeSelect pins GroupBy's feedback path: it
// touches each batch as it folds it instead of collecting the touched
// positions, so a touching GroupBy over a 1 Mi-row table allocates a few
// kilobytes, not a position per qualifying row, at one worker and at
// four, and it leaves exactly the access counts a Select of the same
// predicate leaves on a twin table.
func TestTouchingGroupByTouchesLikeSelect(t *testing.T) {
	const rows = 1 << 20
	preds := map[string]expr.Expr{
		"exact":   expr.NewRange(100, 5000),
		"inexact": expr.Not{X: expr.NewRange(2000, 8000)},
	}
	for name, pred := range preds {
		for _, par := range []int{1, 4} {
			tb := vectorTable(t, rows, 10000, 79)
			twin := vectorTable(t, rows, 10000, 79)
			ex := New(tb)
			ex.SetParallelism(par)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			groups, err := ex.GroupBy("a", pred, ScanActive, 1000)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(groups) == 0 || len(groups) > 16 {
				t.Fatalf("%s/par=%d: %d groups, want 1 to 16", name, par, len(groups))
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 256<<10 {
				t.Fatalf("%s/par=%d: touching GroupBy allocated %d bytes over %d rows, want < 256 KiB", name, par, n, rows)
			}
			if _, err := New(twin).Select("a", pred, ScanActive); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(accessCounts(tb), accessCounts(twin)) {
				t.Fatalf("%s/par=%d: GroupBy's access counts diverge from Select's", name, par)
			}
		}
	}
}

// TestParallelSelectTouchesOnce verifies the §3.2 feedback under the
// parallel path: one query increments each matched row's access count by
// exactly one (one merged TouchMany flush, no double counting).
func TestParallelSelectTouchesOnce(t *testing.T) {
	tb := parallelTable(t, "every-other")
	ex := New(tb)
	ex.SetParallelism(4)
	res, err := ex.Select("a", expr.NewRange(0, 1<<15), ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() == 0 {
		t.Fatal("empty result undermines the test")
	}
	for _, r := range res.Rows {
		if got := tb.AccessCount(int(r)); got != 1 {
			t.Fatalf("row %d access count %d after one query, want 1", r, got)
		}
	}
}

// TestParallelMidBatchResume forces batch-full boundaries to land inside
// active bitmap words: a dense low-value run with every bit set makes
// each 1024-row batch fill mid-word, exercising the resume position
// returned by the word-parallel kernel.
func TestParallelMidBatchResume(t *testing.T) {
	tb := table.New("t", "a")
	vals := make([]int64, 3*parallelTestRows/4)
	for i := range vals {
		vals[i] = int64(i % 100) // every row matches [0, 100)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb.Len(); i += 7 {
		tb.Forget(i)
	}
	serial := NewSilent(tb)
	serial.SetParallelism(1)
	parallel := NewSilent(tb)
	parallel.SetParallelism(3)
	pred := expr.NewRange(0, 100)
	want, err := serial.Select("a", pred, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallel.Select("a", pred, ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) || !reflect.DeepEqual(want.Values, got.Values) {
		t.Fatalf("mid-batch resume diverges: %d vs %d rows", len(want.Rows), len(got.Rows))
	}
}

// TestParallelWorkersExceedMorsels pins the degenerate split: more
// forced workers than morsels must not deadlock, drop rows or panic.
func TestParallelWorkersExceedMorsels(t *testing.T) {
	tb := tbl(t, 5, 15, 25, 35, 45)
	ex := NewSilent(tb)
	ex.SetParallelism(16)
	res, err := ex.Select("a", expr.NewRange(10, 40), ScanActive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 3 {
		t.Fatalf("got %d rows, want 3", res.Count())
	}
}

// TestParallelConcurrentQueries races concurrent morsel-parallel
// queries — touching and silent, selects, aggregates, group-bys and
// precision sweeps — against explicit TouchMany flushes on the same
// table. Run under -race in CI, it proves intra-query workers share the
// table without unsynchronized state.
func TestParallelConcurrentQueries(t *testing.T) {
	tb := parallelTable(t, "every-other")
	pred := expr.NewRange(0, 1<<16)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := New(tb)
			ex.SetParallelism(2 + w%3)
			for r := 0; r < 3; r++ {
				switch (w + r) % 4 {
				case 0:
					if _, err := ex.Select("a", pred, ScanActive); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := ex.Aggregate("a", pred, ScanActive); err != nil && err != ErrNoRows {
						errs <- err
						return
					}
				case 2:
					if _, err := ex.GroupBy("a", pred, ScanActive, 4096); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, _, _, err := ex.Precision("a", pred); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	// Competing touch flushes from outside the engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rows := []int32{1, 3, 5, 7, 1021, 1023, 65537}
		for i := 0; i < 50; i++ {
			tb.TouchMany(rows)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWorkersForKnob pins the knob semantics: auto engages only past
// the row threshold, explicit values are obeyed up to the pool's width.
func TestWorkersForKnob(t *testing.T) {
	tb := tbl(t, 1, 2, 3)
	ex := NewSilent(tb)
	if got := ex.workersFor(parallelMinRows - 1); got != 1 {
		t.Fatalf("auto below threshold: %d workers, want 1", got)
	}
	if got := ex.workersFor(parallelMinRows); got < 1 {
		t.Fatalf("auto at threshold: %d workers", got)
	}
	ex.SetParallelism(1)
	if got := ex.workersFor(math.MaxInt32); got != 1 {
		t.Fatalf("forced serial: %d workers, want 1", got)
	}
	ex.SetParallelism(6)
	for _, width := range []int{8, 4} {
		pool := sched.New(width)
		defer pool.Close()
		ex.SetScheduler(pool)
		if got, want := ex.workersFor(10), min(6, width); got != want {
			t.Fatalf("forced 6 on a pool of %d: %d workers, want %d", width, got, want)
		}
	}
	ex.SetScheduler(nil)
	if got, want := ex.workersFor(10), min(6, sched.Default().Size()); got != want {
		t.Fatalf("forced 6 on the default pool: %d workers, want %d", got, want)
	}
	ex.SetParallelism(-3)
	if got := ex.Parallelism(); got != 0 {
		t.Fatalf("negative knob clamped to %d, want 0", got)
	}
}
