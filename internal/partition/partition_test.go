package partition

import (
	"context"
	"slices"
	"sort"
	"sync"
	"testing"

	"amnesiadb/internal/amnesia"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/xrand"
)

func newSet(t *testing.T, n int, budget int) *Set {
	t.Helper()
	s, err := New("a", 1000, n, "uniform", budget, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	src := xrand.New(1)
	if _, err := New("a", 1000, 0, "uniform", 100, src); err == nil {
		t.Fatal("zero partitions accepted")
	}
	if _, err := New("a", 0, 4, "uniform", 100, src); err == nil {
		t.Fatal("zero domain accepted")
	}
	if _, err := New("a", 1000, 4, "uniform", 2, src); err == nil {
		t.Fatal("budget below partition count accepted")
	}
	if _, err := New("a", 1000, 4, "bogus", 100, src); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestPartitionRangesCoverDomain(t *testing.T) {
	s := newSet(t, 4, 400)
	parts := s.Partitions()
	if len(parts) != 4 {
		t.Fatalf("partitions = %d", len(parts))
	}
	if parts[0].Lo != 0 || parts[len(parts)-1].Hi != 1000 {
		t.Fatalf("domain edges wrong: [%d, %d)", parts[0].Lo, parts[len(parts)-1].Hi)
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].Lo != parts[i-1].Hi {
			t.Fatalf("gap between partitions %d and %d", i-1, i)
		}
	}
}

func TestInsertRoutesByValue(t *testing.T) {
	s := newSet(t, 4, 400)
	if err := s.Insert([]int64{10, 260, 510, 760, 20}); err != nil {
		t.Fatal(err)
	}
	parts := s.Partitions()
	wantCounts := []int{2, 1, 1, 1}
	for i, w := range wantCounts {
		if got := parts[i].Table().Len(); got != w {
			t.Fatalf("partition %d has %d tuples, want %d", i, got, w)
		}
	}
}

func TestInsertOutOfDomain(t *testing.T) {
	s := newSet(t, 2, 100)
	if err := s.Insert([]int64{1000}); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
	if err := s.Insert([]int64{-1}); err == nil {
		t.Fatal("negative value accepted")
	}
}

func TestPerPartitionBudgets(t *testing.T) {
	s := newSet(t, 2, 100) // 50 per shard
	vals := make([]int64, 400)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	if err := s.Insert(vals); err != nil {
		t.Fatal(err)
	}
	for i, p := range s.Partitions() {
		if got := p.Table().ActiveCount(); got > 50 {
			t.Fatalf("partition %d active %d over budget 50", i, got)
		}
	}
	st := s.Stats()
	if st.Active > 100 {
		t.Fatalf("total active %d over total budget", st.Active)
	}
}

func TestSelectFansOut(t *testing.T) {
	s := newSet(t, 4, 400)
	if err := s.Insert([]int64{100, 300, 600, 900}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("full select returned %d", len(got))
	}
	got, err = s.Select(250, 650)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("partial select returned %v", got)
	}
}

func TestSelectCountsHitsOnlyOnIntersect(t *testing.T) {
	s := newSet(t, 4, 400)
	if err := s.Insert([]int64{100}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(0, 100); err != nil {
		t.Fatal(err)
	}
	parts := s.Partitions()
	if parts[0].Hits() != 1 {
		t.Fatalf("partition 0 hits = %d", parts[0].Hits())
	}
	for i := 1; i < 4; i++ {
		if parts[i].Hits() != 0 {
			t.Fatalf("partition %d hits = %d, want 0", i, parts[i].Hits())
		}
	}
	// An aggregate records one hit per intersecting shard, like a scan.
	if _, err := s.Aggregate(context.Background(), expr.NewRange(50, 150)); err != nil {
		t.Fatal(err)
	}
	if parts[0].Hits() != 2 {
		t.Fatalf("partition 0 hits after Aggregate = %d, want 2", parts[0].Hits())
	}
	for i := 1; i < 4; i++ {
		if parts[i].Hits() != 0 {
			t.Fatalf("partition %d hits after Aggregate = %d, want 0", i, parts[i].Hits())
		}
	}
}

func TestPrecisionAcrossShards(t *testing.T) {
	s := newSet(t, 2, 2) // budget 1 per shard forces forgetting
	if err := s.Insert([]int64{100, 200, 600, 700}); err != nil {
		t.Fatal(err)
	}
	rf, mf, pf, err := s.Precision(context.Background(), expr.NewRange(0, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if rf != 2 || mf != 2 || pf != 0.5 {
		t.Fatalf("rf=%d mf=%d pf=%v", rf, mf, pf)
	}
}

func TestAdaptShiftsBudgetTowardHotShard(t *testing.T) {
	s := newSet(t, 4, 400)
	vals := make([]int64, 2000)
	src := xrand.New(9)
	for i := range vals {
		vals[i] = src.Int63n(1000)
	}
	if err := s.Insert(vals); err != nil {
		t.Fatal(err)
	}
	// Hammer shard 0's range.
	for i := 0; i < 50; i++ {
		if _, err := s.Select(0, 250); err != nil {
			t.Fatal(err)
		}
	}
	s.Adapt()
	parts := s.Partitions()
	if parts[0].Budget() <= parts[1].Budget() {
		t.Fatalf("hot shard budget %d not above cold %d", parts[0].Budget(), parts[1].Budget())
	}
	total := 0
	for _, p := range parts {
		total += p.Budget()
		if p.Table().ActiveCount() > p.Budget() {
			t.Fatalf("shard over budget after Adapt: %d > %d", p.Table().ActiveCount(), p.Budget())
		}
		if p.Hits() != 0 {
			t.Fatal("hits not reset")
		}
	}
	if total != 400 {
		t.Fatalf("total budget drifted to %d", total)
	}
}

func TestAdaptImprovesHotRangePrecision(t *testing.T) {
	// The §4.4 promise: adapting to the workload buys precision on the
	// hot range compared to static equal budgets.
	run := func(adapt bool) float64 {
		s, err := New("a", 1000, 4, "uniform", 400, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		src := xrand.New(4)
		for round := 0; round < 12; round++ {
			vals := make([]int64, 400)
			for i := range vals {
				vals[i] = src.Int63n(1000)
			}
			if err := s.Insert(vals); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 20; q++ {
				if _, err := s.Select(0, 250); err != nil {
					t.Fatal(err)
				}
			}
			if adapt {
				s.Adapt()
			}
		}
		_, _, pf, err := s.Precision(context.Background(), expr.NewRange(0, 250))
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}
	static, adaptive := run(false), run(true)
	if adaptive <= static {
		t.Fatalf("adaptive precision %.3f not above static %.3f", adaptive, static)
	}
}

// TestSelectParallelFanOutEquivalence pins the acceptance criterion: a
// set read by four workers returns byte-identical selects, precision
// and aggregates to one read by one worker, across full-domain and
// partial-range queries, and leaves the same access counts on every
// shard.
func TestSelectParallelFanOutEquivalence(t *testing.T) {
	build := func(par int) *Set {
		s, err := New("a", 1000, 8, "uniform", 800, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		s.SetParallelism(par)
		vals := make([]int64, 5000)
		src := xrand.New(6)
		for i := range vals {
			vals[i] = src.Int63n(1000)
		}
		if err := s.Insert(vals); err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, parallel := build(1), build(4)
	for _, r := range [][2]int64{{0, 1000}, {250, 650}, {10, 20}, {990, 995}} {
		want, err := serial.Select(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := parallel.Select(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("range %v: %d vs %d values", r, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("range %v: value %d diverges: %d vs %d", r, i, want[i], got[i])
			}
		}
		rf1, mf1, pf1, err := serial.Precision(context.Background(), expr.NewRange(r[0], r[1]))
		if err != nil {
			t.Fatal(err)
		}
		rf4, mf4, pf4, err := parallel.Precision(context.Background(), expr.NewRange(r[0], r[1]))
		if err != nil {
			t.Fatal(err)
		}
		if rf1 != rf4 || mf1 != mf4 || pf1 != pf4 {
			t.Fatalf("range %v: precision diverges: (%d,%d,%v) vs (%d,%d,%v)", r, rf1, mf1, pf1, rf4, mf4, pf4)
		}
		a1, err1 := serial.Aggregate(context.Background(), expr.NewRange(r[0], r[1]))
		a4, err4 := parallel.Aggregate(context.Background(), expr.NewRange(r[0], r[1]))
		if err1 != err4 || (a1 != nil) != (a4 != nil) || (a1 != nil && *a1 != *a4) {
			t.Fatalf("range %v: aggregate diverges: %+v, %v vs %+v, %v", r, a1, err1, a4, err4)
		}
	}
	for i, p := range serial.Partitions() {
		q := parallel.Partitions()[i]
		for row := range p.Table().Len() {
			if p.Table().AccessCount(row) != q.Table().AccessCount(row) {
				t.Fatalf("shard %d row %d: access count %d at par 1, %d at par 4", i, row, p.Table().AccessCount(row), q.Table().AccessCount(row))
			}
		}
	}
}

// TestConcurrentInsertAdapt is the regression for the Adapt/Insert budget
// race: Adapt used to rewrite p.Budget and forget tuples with no
// synchronisation against Insert's budget enforcement. Run under -race.
func TestConcurrentInsertAdapt(t *testing.T) {
	s, err := New("a", 1000, 4, "uniform", 400, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	s.SetParallelism(2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := xrand.New(uint64(100 + g))
			for i := 0; i < 50; i++ {
				vals := make([]int64, 40)
				for j := range vals {
					vals[j] = src.Int63n(1000)
				}
				if err := s.Insert(vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Adapt()
		}
	}()
	wg.Wait()
	total := 0
	for _, p := range s.Partitions() {
		total += p.Budget()
	}
	if total != 400 {
		t.Fatalf("total budget drifted to %d", total)
	}
	// One final enforcement pass: a shard may legitimately sit over
	// budget if its last Insert landed after the last Adapt shrank it,
	// but budgets must be consistent once the dust settles.
	s.Adapt()
	for i, p := range s.Partitions() {
		if p.Table().ActiveCount() > p.Budget() {
			t.Fatalf("shard %d over budget: %d > %d", i, p.Table().ActiveCount(), p.Budget())
		}
	}
}

// TestObservedPositionsMatchBitmapDiff is the partitioned half of the
// position oracle: for every strategy, what InsertObserved and
// AdaptObserved hand the observer — the shard strategy's own report,
// which the WAL logs as it stands — must be, as a set, exactly the
// bitmap difference the mutation made on that shard: no duplicates,
// nothing that was not active before.
func TestObservedPositionsMatchBitmapDiff(t *testing.T) {
	const domain, shards = 1 << 16, 4
	for _, name := range amnesia.Names() {
		src := xrand.New(77)
		set, err := New("v", domain, shards, name, 600, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		type snap struct {
			words  []uint64
			oldLen int
		}
		snapshot := func() []snap {
			out := make([]snap, shards)
			for i, p := range set.Partitions() {
				out[i].words, out[i].oldLen = p.Table().ActiveSnapshot(nil)
			}
			return out
		}
		check := func(op string, before []snap, shard int, forgotten []int) {
			t.Helper()
			got := append([]int(nil), forgotten...)
			sort.Ints(got)
			want := set.Partitions()[shard].Table().ForgottenSince(before[shard].words, before[shard].oldLen)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s shard %d: observer got %v, bitmap diff %v", name, op, shard, got, want)
			}
		}
		forgot := 0
		for round := 0; round < 12; round++ {
			vals := make([]int64, 300)
			for i := range vals {
				vals[i] = src.Int63n(domain)
			}
			before := snapshot()
			seen := map[int]bool{}
			err := set.InsertObserved(vals, func(shard int, appended []int64, forgotten []int) {
				check("insert", before, shard, forgotten)
				seen[shard] = true
				forgot += len(forgotten)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range before {
				if !seen[i] {
					check("insert (unobserved)", before, i, nil)
				}
			}
			if round%4 != 3 {
				continue
			}
			// Skew the workload so Adapt shrinks three shards.
			for q := 0; q < 50; q++ {
				if _, err := set.Select(0, domain/shards); err != nil {
					t.Fatal(err)
				}
			}
			before = snapshot()
			set.AdaptObserved(func(shard, budget int, forgotten []int) {
				check("adapt", before, shard, forgotten)
				forgot += len(forgotten)
			})
		}
		if forgot == 0 {
			t.Fatalf("%s: nothing was ever forgotten; the test exercised nothing", name)
		}
	}
}
