package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"amnesiadb"
	"amnesiadb/experiments/internal/dist"
	"amnesiadb/experiments/internal/metrics"
	"amnesiadb/experiments/internal/workload"
	"amnesiadb/internal/xrand"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.QueriesPerBatch = 50
	return cfg
}

func TestValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.DBSize = 0 },
		func(c *Config) { c.UpdatePerc = 0 },
		func(c *Config) { c.UpdatePerc = 1.5 },
		func(c *Config) { c.Batches = -1 },
		func(c *Config) { c.QueriesPerBatch = -1 },
		func(c *Config) { c.Domain = 0 },
		func(c *Config) { c.Selectivity = -0.1 },
	}
	for i, mutate := range bads {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
}

func TestRunBudgetInvariant(t *testing.T) {
	for _, s := range amnesiadb.Strategies() {
		cfg := fastConfig()
		cfg.Strategy = s
		res, err := Run(t.Context(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Stats.Active != cfg.DBSize {
			t.Fatalf("%s: final active %d != dbsize %d", s, res.Stats.Active, cfg.DBSize)
		}
		wantTotal := cfg.DBSize + cfg.Batches*int(cfg.UpdatePerc*float64(cfg.DBSize))
		if res.Stats.Tuples != wantTotal {
			t.Fatalf("%s: stored %d tuples, want %d", s, res.Stats.Tuples, wantTotal)
		}
	}
}

func TestRunSeriesShape(t *testing.T) {
	cfg := fastConfig()
	res, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Points) != cfg.Batches {
		t.Fatalf("series has %d points, want %d", len(res.Series.Points), cfg.Batches)
	}
	if err := res.Series.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := fastConfig()
	a, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series.Points {
		if a.Series.Points[i] != b.Series.Points[i] {
			t.Fatalf("batch %d diverged: %+v vs %+v", i, a.Series.Points[i], b.Series.Points[i])
		}
	}
	for i := range a.MapActive {
		if a.MapActive[i] != b.MapActive[i] {
			t.Fatalf("map diverged at %d", i)
		}
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	cfg := fastConfig()
	a, _ := Run(t.Context(), cfg)
	cfg.Seed = 999
	b, _ := Run(t.Context(), cfg)
	same := true
	for i := range a.MapActive {
		if a.MapActive[i] != b.MapActive[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical amnesia maps")
	}
}

func TestAmnesiaMapFIFOShape(t *testing.T) {
	// FIFO keeps only the newest tuples: early batches fully dark, the
	// final stretch fully bright.
	cfg := fastConfig()
	cfg.Strategy = "fifo"
	res, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pct := res.ActivePercent()
	if pct[0] != 0 {
		t.Fatalf("fifo: initial batch %f%% active, want 0", pct[0])
	}
	if last := pct[len(pct)-1]; last != 100 {
		t.Fatalf("fifo: newest batch %f%% active, want 100", last)
	}
}

func TestAmnesiaMapAnteShape(t *testing.T) {
	// Anterograde protects history: batch 0 bright, updates dark.
	cfg := fastConfig()
	cfg.Strategy = "ante"
	res, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pct := res.ActivePercent()
	mid := 0.0
	for _, p := range pct[1 : len(pct)-1] {
		mid += p
	}
	mid /= float64(len(pct) - 2)
	if pct[0] < 80 {
		t.Fatalf("ante: initial batch only %.1f%% active", pct[0])
	}
	if mid > pct[0]/2 {
		t.Fatalf("ante: update batches too bright (%.1f%% vs initial %.1f%%)", mid, pct[0])
	}
}

func TestAmnesiaMapUniformMonotoneTrend(t *testing.T) {
	// Uniform amnesia: newer batches had fewer forgetting opportunities,
	// so activity should trend upward along the timeline.
	cfg := fastConfig()
	cfg.Strategy = "uniform"
	res, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pct := res.ActivePercent()
	first, last := pct[0], pct[len(pct)-1]
	if last <= first {
		t.Fatalf("uniform map not brightening: first %.1f%%, last %.1f%%", first, last)
	}
}

func TestQueryKindsRun(t *testing.T) {
	for _, k := range []QueryKind{RangeQueries, AggQueries, AggRangeQueries} {
		cfg := fastConfig()
		cfg.Queries = k
		cfg.QueriesPerBatch = 20
		if _, err := Run(t.Context(), cfg); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestQueryKindStrings(t *testing.T) {
	if RangeQueries.String() != "range" || AggQueries.String() != "avg" ||
		AggRangeQueries.String() != "avg-range" {
		t.Fatal("QueryKind strings wrong")
	}
	if !strings.HasPrefix(QueryKind(42).String(), "QueryKind(") {
		t.Fatal("unknown kind string wrong")
	}
}

func TestRunAllOrders(t *testing.T) {
	cfg := fastConfig()
	cfg.QueriesPerBatch = 10
	names := []string{"fifo", "uniform"}
	out, err := RunAll(t.Context(), cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Series.Name != "fifo" || out[1].Series.Name != "uniform" {
		t.Fatalf("RunAll order wrong")
	}
}

func TestRunAllUnknownStrategy(t *testing.T) {
	if _, err := RunAll(t.Context(), fastConfig(), []string{"nope"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestAllDistributionsRun(t *testing.T) {
	for _, d := range dist.Kinds {
		cfg := fastConfig()
		cfg.Distribution = d
		cfg.Strategy = "rot"
		cfg.QueriesPerBatch = 30
		if _, err := Run(t.Context(), cfg); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}

func TestPrecisionDecaysOverTime(t *testing.T) {
	// The headline observation of §4.2: precision drops as more is
	// forgotten. Check first-batch precision >= last-batch precision for
	// the uniform baseline under high volatility.
	cfg := fastConfig()
	cfg.UpdatePerc = 0.8
	cfg.Strategy = "uniform"
	cfg.QueriesPerBatch = 200
	res, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Series.Precisions()
	if ps[0] < ps[len(ps)-1] {
		t.Fatalf("precision rose over time: %v", ps)
	}
	if ps[len(ps)-1] > 0.8 {
		t.Fatalf("final precision %v implausibly high at 80%% volatility", ps[len(ps)-1])
	}
}

func TestCandidateModesChangeWorkload(t *testing.T) {
	// Under zipfian data with the areav strategy, active-candidate
	// queries avoid the value holes while uniform candidates do not, so
	// the measured precision must differ meaningfully between modes.
	run := func(m workload.CandidateMode) float64 {
		cfg := fastConfig()
		cfg.Distribution = dist.Zipf
		cfg.Strategy = "areav"
		cfg.UpdatePerc = 0.8
		cfg.QueriesPerBatch = 200
		cfg.Candidates = m
		res, err := Run(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := res.Series.Precisions()
		return ps[len(ps)-1]
	}
	active := run(workload.CandidateActive)
	uniform := run(workload.CandidateUniform)
	if active <= uniform {
		t.Fatalf("active-candidate precision %v not above uniform %v under areav", active, uniform)
	}
}

func TestRunSeedsStats(t *testing.T) {
	cfg := fastConfig()
	cfg.QueriesPerBatch = 100
	st, err := RunSeeds(t.Context(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seeds != 5 || len(st.Mean) != cfg.Batches || len(st.StdDev) != cfg.Batches {
		t.Fatalf("stats shape = %+v", st)
	}
	// First batch is always perfect precision: mean 1, sd 0.
	if st.Mean[0] != 1 || st.StdDev[0] != 0 {
		t.Fatalf("batch 1 stats = %v ± %v", st.Mean[0], st.StdDev[0])
	}
	// Later batches: mean in (0,1), sd small but nonzero across seeds.
	last := len(st.Mean) - 1
	if st.Mean[last] <= 0 || st.Mean[last] >= 1 {
		t.Fatalf("final mean = %v", st.Mean[last])
	}
	if st.StdDev[last] <= 0 || st.StdDev[last] > 0.2 {
		t.Fatalf("final sd = %v", st.StdDev[last])
	}
	for _, b := range st.Batches {
		if b < 1 || b > cfg.Batches {
			t.Fatalf("batches = %v", st.Batches)
		}
	}
}

func TestRunSeedsValidation(t *testing.T) {
	cfg := fastConfig()
	if _, err := RunSeeds(t.Context(), cfg, 0); err == nil {
		t.Fatal("zero seeds accepted")
	}
	cfg.QueriesPerBatch = 0
	if _, err := RunSeeds(t.Context(), cfg, 2); err == nil {
		t.Fatal("workload-free RunSeeds accepted")
	}
}

func TestZeroBatchesJustLoads(t *testing.T) {
	cfg := fastConfig()
	cfg.Batches = 0
	res, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Points) != 0 || res.Stats.Active != cfg.DBSize {
		t.Fatalf("zero-batch run wrong: %+v", res.Stats)
	}
}

// TestDurableRunMatchesInMemory runs every strategy under every query
// kind on an in-memory database and on a durable one, whose inserts also
// log their batches and forgotten positions through the WAL, and
// requires identical results.
func TestDurableRunMatchesInMemory(t *testing.T) {
	inMemory := open
	t.Cleanup(func() { open = inMemory })
	for _, s := range amnesiadb.Strategies() {
		for _, k := range []QueryKind{RangeQueries, AggQueries, AggRangeQueries} {
			t.Run(s+"/"+k.String(), func(t *testing.T) {
				cfg := fastConfig()
				cfg.Strategy, cfg.Queries, cfg.QueriesPerBatch = s, k, 20
				open = inMemory
				mem, err := Run(t.Context(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				open = func(seed uint64) (*amnesiadb.DB, error) {
					return amnesiadb.OpenDir(dir, amnesiadb.Options{Seed: seed})
				}
				dur, err := Run(t.Context(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mem, dur) {
					t.Fatalf("durable run differs:\nmemory  %+v\ndurable %+v", mem, dur)
				}
			})
		}
	}
}

// loaded returns a table holding vals under policy p, and a range
// generator that has seen them.
func loaded(t *testing.T, p amnesiadb.Policy, vals []int64) (*amnesiadb.Table, *workload.RangeGen) {
	t.Helper()
	db := amnesiadb.Open(amnesiadb.Options{Seed: 1})
	t.Cleanup(db.Close)
	tb, err := db.CreateTable("t", col)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	g := workload.NewRangeGen(xrand.New(7))
	if len(vals) > 0 {
		g.Insert(vals)
		if err := tb.InsertColumn(col, vals); err != nil {
			t.Fatal(err)
		}
	}
	return tb, g
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// batchOf fires n queries of kind k at tb.
func batchOf(t *testing.T, tb *amnesiadb.Table, g *workload.RangeGen, k QueryKind, n int) *metrics.Batch {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Queries, cfg.QueriesPerBatch = k, n
	b, err := queryBatch(t.Context(), tb, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if b.Queries() != n {
		t.Fatalf("observed %d queries, want %d", b.Queries(), n)
	}
	return b
}

func TestQueryBatchFullDatabasePerfect(t *testing.T) {
	tb, g := loaded(t, amnesiadb.Policy{}, seq(500))
	if p := batchOf(t, tb, g, RangeQueries, 200).MeanPrecision(); p != 1 {
		t.Fatalf("precision with no amnesia = %v", p)
	}
}

func TestQueryBatchDetectsAmnesia(t *testing.T) {
	tb, g := loaded(t, amnesiadb.Policy{Strategy: "uniform", Budget: 250}, seq(500))
	if p := batchOf(t, tb, g, RangeQueries, 300).MeanPrecision(); p < 0.3 || p > 0.7 {
		t.Fatalf("half-forgotten precision = %v, want ~0.5", p)
	}
}

func TestQueryBatchEmptyTableErrors(t *testing.T) {
	tb, g := loaded(t, amnesiadb.Policy{}, nil)
	cfg := DefaultConfig()
	cfg.QueriesPerBatch = 1
	if _, err := queryBatch(t.Context(), tb, cfg, g); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestAvgBatchNoAmnesiaZeroError(t *testing.T) {
	tb, g := loaded(t, amnesiadb.Policy{}, seq(300))
	b := batchOf(t, tb, g, AggQueries, 50)
	if b.MeanAggregateError() != 0 || b.MeanPrecision() != 1 {
		t.Fatalf("no-amnesia agg: err=%v pf=%v", b.MeanAggregateError(), b.MeanPrecision())
	}
}

func TestAvgBatchSkewedForgettingShiftsAvg(t *testing.T) {
	// FIFO forgets the high values inserted first: AVG over active must
	// drift and the batch must report a nonzero aggregate error.
	desc := seq(1000)
	slices.Reverse(desc)
	tb, g := loaded(t, amnesiadb.Policy{Strategy: "fifo", Budget: 500}, desc)
	if e := batchOf(t, tb, g, AggQueries, 20).MeanAggregateError(); e < 0.3 {
		t.Fatalf("aggregate error %v too small for half-forgotten data", e)
	}
}

func TestAvgBatchAllForgottenRange(t *testing.T) {
	// Predicated AVG where ranges are fully forgotten must not error
	// out; it reports a full miss instead.
	tb, g := loaded(t, amnesiadb.Policy{Strategy: "fifo", Budget: 1}, seq(1000))
	g.Candidates = workload.CandidateStored
	if p := batchOf(t, tb, g, AggRangeQueries, 50).MeanPrecision(); p > 0.01 {
		t.Fatalf("nearly fully forgotten table precision = %v", p)
	}
}

func TestExactAvgMatchesCompleteScan(t *testing.T) {
	// The exact AVG folds the generator's inserted values; with no
	// Vacuum they are what the complete scan returns, forgotten or not.
	vals := make([]int64, 2000)
	src := xrand.New(3)
	for i := range vals {
		vals[i] = src.Int63n(5000)
	}
	tb, g := loaded(t, amnesiadb.Policy{Strategy: "uniform", Budget: 700}, vals)
	g.Candidates = workload.CandidateStored
	for i := 0; i < 50; i++ {
		lo, hi, _ := g.Next(nil)
		all, err := tb.SelectWithForgotten(col, amnesiadb.Range(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, v := range all.Values {
			sum += v
		}
		if n, s := g.Inserted(lo, hi); n != all.Count() || s != sum {
			t.Fatalf("[%d, %d): inserted fold (%d, %d), complete scan (%d, %d)", lo, hi, n, s, all.Count(), sum)
		}
	}
}
