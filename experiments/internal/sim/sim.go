// Package sim is the Data Amnesia Simulator of §2: it drives a served
// amnesiadb.DB through the paper's query-dominant loop — a batch of
// queries, then a batch of inserts whose budget enforcement is the
// amnesia step — while collecting the precision metrics and amnesia maps
// of the evaluation section.
//
// A figure exercises exactly these facade calls: Open, CreateTable,
// SetPolicy{Strategy, Budget: DBSize}, InsertColumn (its enforcement is
// the only forgetting), Table.ActiveValues once per query batch for
// active-candidate draws, Table.Precision for range queries,
// Table.Aggregate for §4.3's AVG, and ActivePerBatch and Stats at the
// end. §4.3's exact AVG is folded from the inserted values the query
// generator records: the simulator never vacuums, so they are what
// SelectWithForgotten's complete scan would return. Simulator tables
// hold at most 20k rows, below the engine's parallel threshold, so every
// scan is serial and a Parallelism 1-vs-n comparison would compare
// serial with serial.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"amnesiadb"
	"amnesiadb/experiments/internal/dist"
	"amnesiadb/experiments/internal/metrics"
	"amnesiadb/experiments/internal/workload"
	"amnesiadb/internal/xrand"
)

// QueryKind selects the workload fired at each batch boundary.
type QueryKind int

const (
	// RangeQueries fires the Figure 3 range template.
	RangeQueries QueryKind = iota
	// AggQueries fires SELECT AVG(a) FROM t (§4.3).
	AggQueries
	// AggRangeQueries fires AVG with a range predicate (§4.3's "daily
	// life" variant).
	AggRangeQueries
)

// String names the workload kind.
func (k QueryKind) String() string {
	switch k {
	case RangeQueries:
		return "range"
	case AggQueries:
		return "avg"
	case AggRangeQueries:
		return "avg-range"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// Config parameterises one simulation run. The zero value is not valid;
// use DefaultConfig as the base.
type Config struct {
	// DBSize is the constant active-tuple budget (paper: dbsize=1000).
	DBSize int
	// UpdatePerc is the per-batch volatility: each update batch inserts
	// UpdatePerc*DBSize fresh tuples and the strategy must forget as
	// many (paper: upd-perc 0.20 for the maps, 0.80 for Figure 3).
	UpdatePerc float64
	// Batches is the number of update batches after the initial load.
	Batches int
	// QueriesPerBatch is the size of each query batch (paper: 1000).
	QueriesPerBatch int
	// Distribution generates attribute values.
	Distribution dist.Kind
	// Domain is the exclusive upper bound of generated values.
	Domain int64
	// Strategy names the amnesia algorithm (see amnesiadb.Strategies).
	Strategy string
	// Queries selects the workload template.
	Queries QueryKind
	// Selectivity overrides the range window width when > 0.
	Selectivity float64
	// Candidates selects where range-query centre values come from
	// (default: the paper's active-tuple sampling).
	Candidates workload.CandidateMode
	// Seed makes the run reproducible.
	Seed uint64
	// Observe, when set, is called after each update batch's amnesia
	// step with the batch index and the simulated table.
	Observe func(batch int, t *amnesiadb.Table) error
}

// DefaultConfig returns the paper's base parameters: dbsize 1000, 10
// batches, 1000 queries per batch, uniform data over a domain of 100k.
func DefaultConfig() Config {
	return Config{
		DBSize:          1000,
		UpdatePerc:      0.20,
		Batches:         10,
		QueriesPerBatch: 1000,
		Distribution:    dist.Uniform,
		Domain:          100000,
		Strategy:        "uniform",
		Queries:         RangeQueries,
		Seed:            1,
	}
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.DBSize <= 0:
		return fmt.Errorf("sim: DBSize %d must be positive", c.DBSize)
	case c.UpdatePerc <= 0 || c.UpdatePerc > 1:
		return fmt.Errorf("sim: UpdatePerc %v outside (0, 1]", c.UpdatePerc)
	case c.Batches < 0:
		return fmt.Errorf("sim: Batches %d negative", c.Batches)
	case c.QueriesPerBatch < 0:
		return fmt.Errorf("sim: QueriesPerBatch %d negative", c.QueriesPerBatch)
	case c.Domain <= 0:
		return fmt.Errorf("sim: Domain %d must be positive", c.Domain)
	case c.Selectivity < 0 || c.Selectivity > 1:
		return fmt.Errorf("sim: Selectivity %v outside [0, 1]", c.Selectivity)
	case c.Queries < RangeQueries || c.Queries > AggRangeQueries:
		return fmt.Errorf("sim: invalid query kind %d", int(c.Queries))
	}
	return nil
}

// Result carries everything a run produced.
type Result struct {
	Config Config
	// Series holds per-batch precision metrics (batch index 1..Batches;
	// queries are fired before each amnesia step, matching §2.3).
	Series metrics.Series
	// MapActive[b] / MapTotal[b] give the amnesia map of Figures 1-2:
	// how many tuples of insertion batch b (0 = initial load) are still
	// active at the end of the run.
	MapActive []int
	MapTotal  []int
	// Final table statistics.
	Stats amnesiadb.Stats
}

// ActivePercent returns the amnesia-map y-axis: the percentage of each
// insertion batch still active at the end of the run.
func (r *Result) ActivePercent() []float64 {
	out := make([]float64, len(r.MapActive))
	for i := range out {
		if r.MapTotal[i] > 0 {
			out[i] = 100 * float64(r.MapActive[i]) / float64(r.MapTotal[i])
		}
	}
	return out
}

// col is the simulated table's one attribute.
const col = "a"

// open makes the database a run drives from its seed; a test swaps in
// a durable one.
var open = func(seed uint64) (*amnesiadb.DB, error) {
	return amnesiadb.Open(amnesiadb.Options{Seed: seed}), nil
}

// Run executes one simulation described by cfg and returns its metrics.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The data, the queries and the database (whose strategies split
	// their streams from its seed) each get their own stream of root.
	root := xrand.New(cfg.Seed)
	gen := dist.NewGenerator(cfg.Distribution, cfg.Domain, root.Split())
	queries := workload.NewRangeGen(root.Split())
	queries.Candidates = cfg.Candidates
	if cfg.Selectivity > 0 {
		queries.Selectivity = cfg.Selectivity
	}
	db, err := open(root.Uint64())
	if err != nil {
		return nil, err
	}
	defer db.Close()
	tb, err := db.CreateTable("t", col)
	if err != nil {
		return nil, err
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: cfg.Strategy, Budget: cfg.DBSize}); err != nil {
		return nil, err
	}
	insert := func(n int) error {
		vals := gen.Batch(nil, n)
		queries.Insert(vals)
		return tb.InsertColumn(col, vals)
	}

	// Initial load: the database starts full at DBSIZE (timeline point 0).
	if err := insert(cfg.DBSize); err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Series: metrics.Series{Name: cfg.Strategy}}
	updateSize := max(int(cfg.UpdatePerc*float64(cfg.DBSize)), 1)
	for b := 1; b <= cfg.Batches; b++ {
		// 1. Query batch (feeds access frequencies and metrics).
		if cfg.QueriesPerBatch > 0 {
			batch, err := queryBatch(ctx, tb, cfg, queries)
			if err != nil {
				return nil, err
			}
			res.Series.Add(b, batch)
		}
		// 2. Update batch; its enforcement restores the budget exactly.
		if err := insert(updateSize); err != nil {
			return nil, err
		}
		if cfg.Observe != nil {
			if err := cfg.Observe(b, tb); err != nil {
				return nil, err
			}
		}
	}

	if err := res.Series.Validate(); err != nil {
		return nil, err
	}
	res.MapActive, res.MapTotal = tb.ActivePerBatch()
	res.Stats = tb.Stats()
	return res, nil
}

// queryBatch fires one batch of cfg's queries at tb and folds their
// precision into a batch summary. Active scans feed access frequencies
// (training rot-style strategies); ground truth is collected silently.
func queryBatch(ctx context.Context, tb *amnesiadb.Table, cfg Config, g *workload.RangeGen) (*metrics.Batch, error) {
	// Queries do not change which tuples are active, so one silent read
	// serves the whole batch's candidate draws.
	var active []int64
	if g.Candidates == workload.CandidateActive {
		var err error
		if active, err = tb.ActiveValues(col); err != nil {
			return nil, err
		}
	}
	// AVG(a) over the whole table has one exact answer a batch.
	var n int
	var sum int64
	if cfg.Queries == AggQueries {
		n, sum = g.Inserted(math.MinInt64, math.MaxInt64)
	}
	b := &metrics.Batch{}
	for i := 0; i < cfg.QueriesPerBatch; i++ {
		p := amnesiadb.All()
		if cfg.Queries != AggQueries {
			lo, hi, ok := g.Next(active)
			if !ok {
				return nil, errors.New("sim: no data to draw a query from")
			}
			p = amnesiadb.Range(lo, hi)
			if cfg.Queries == RangeQueries {
				rf, mf, _, err := tb.Precision(ctx, col, p)
				if err != nil {
					return nil, err
				}
				b.Observe(metrics.Query{RF: rf, MF: mf})
				continue
			}
			n, sum = g.Inserted(lo, hi)
		}
		if err := observeAvg(b, tb, p, n, sum); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// observeAvg fires one AVG query, recording its tuple-level precision
// and its relative error against the exact average: n and sum fold every
// qualifying value ever inserted, which is what a complete scan would
// see, since the simulator never vacuums.
func observeAvg(b *metrics.Batch, tb *amnesiadb.Table, p amnesiadb.Pred, n int, sum int64) error {
	// An empty active match is a zero Agg: everything in range was
	// forgotten.
	approx, err := tb.Aggregate(col, p)
	if err != nil && !errors.Is(err, amnesiadb.ErrNoRows) {
		return err
	}
	if n == 0 {
		// Nothing qualifies anywhere: vacuously precise.
		b.Observe(metrics.Query{})
		return nil
	}
	b.Observe(metrics.Query{RF: approx.Count, MF: n - approx.Count})
	b.ObserveAggregate(approx.Avg, float64(sum)/float64(n))
	return nil
}

// RunAll executes the same configuration once per strategy name, returning
// results in the given order. It is the engine behind the multi-line
// figures.
func RunAll(ctx context.Context, cfg Config, strategies []string) ([]*Result, error) {
	out := make([]*Result, 0, len(strategies))
	for _, s := range strategies {
		c := cfg
		c.Strategy = s
		r, err := Run(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("sim: strategy %s: %w", s, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// SeedStats aggregates one configuration over multiple seeds: per batch,
// the mean and sample standard deviation of precision. A single seed per
// figure is the paper's practice; multi-seed runs put honest error bars
// on the reproduction.
type SeedStats struct {
	Config  Config
	Seeds   int
	Batches []int
	Mean    []float64
	StdDev  []float64
}

// RunSeeds executes cfg with seeds cfg.Seed, cfg.Seed+1, ...,
// cfg.Seed+n-1 and aggregates the precision series. It requires n >= 1
// and a workload (QueriesPerBatch > 0).
func RunSeeds(ctx context.Context, cfg Config, n int) (*SeedStats, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: RunSeeds needs at least one seed, got %d", n)
	}
	if cfg.QueriesPerBatch == 0 {
		return nil, fmt.Errorf("sim: RunSeeds needs a query workload")
	}
	var sum, sumSq []float64
	st := &SeedStats{Config: cfg, Seeds: n}
	for s := 0; s < n; s++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(s)
		r, err := Run(ctx, c)
		if err != nil {
			return nil, err
		}
		ps := r.Series.Precisions()
		if sum == nil {
			sum = make([]float64, len(ps))
			sumSq = make([]float64, len(ps))
			for _, p := range r.Series.Points {
				st.Batches = append(st.Batches, p.Batch)
			}
		}
		for i, p := range ps {
			sum[i] += p
			sumSq[i] += p * p
		}
	}
	st.Mean = make([]float64, len(sum))
	st.StdDev = make([]float64, len(sum))
	for i := range sum {
		m := sum[i] / float64(n)
		st.Mean[i] = m
		if n > 1 {
			variance := (sumSq[i] - float64(n)*m*m) / float64(n-1)
			st.StdDev[i] = math.Sqrt(max(variance, 0))
		}
	}
	return st, nil
}
