// Package exp defines the paper's experiments as reproducible,
// parameter-for-parameter configurations (see DESIGN.md's experiment
// index). The CLI and the benchmark harness both run experiments from
// this single registry so figures are regenerated from one source of
// truth.
package exp

import (
	"fmt"
	"io"

	"amnesiadb/internal/amnesia"
	"amnesiadb/internal/compress"
	"amnesiadb/internal/dist"
	"amnesiadb/internal/engine"
	"amnesiadb/internal/histogram"
	"amnesiadb/internal/metrics"
	"amnesiadb/internal/report"
	"amnesiadb/internal/sim"
	"amnesiadb/internal/table"
	"amnesiadb/internal/workload"
	"amnesiadb/internal/xrand"
)

// PaperStrategies are the five algorithms of the paper's figures, in
// legend order.
var PaperStrategies = []string{"fifo", "uniform", "ante", "rot", "area"}

// MapStrategies are the four algorithms of Figure 1 (rot is excluded
// there and gets Figure 2 to itself).
var MapStrategies = []string{"fifo", "uniform", "ante", "area"}

// Experiment is one regenerable paper artefact.
type Experiment struct {
	// ID is the figure/table identifier used on the command line.
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Run executes the experiment and renders its data to w.
	Run func(w io.Writer, seed uint64) error
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Figure 1: database amnesia map after 10 batches of updates", Run: Fig1},
		{ID: "fig2", Title: "Figure 2: database rot map after 10 batches of updates", Run: Fig2},
		{ID: "fig3a", Title: "Figure 3 (top): range query precision, normal data, upd-perc=0.80", Run: Fig3Normal},
		{ID: "fig3b", Title: "Figure 3 (bottom): range query precision, zipfian data, upd-perc=0.80", Run: Fig3Zipf},
		{ID: "fig3x", Title: "Figure 3 ablation: extension strategies (areav/pairwise/distaligned), zipfian data", Run: Fig3Extensions},
		{ID: "agg", Title: "Section 4.3: aggregate (AVG) query precision, long run", Run: AggPrecision},
		{ID: "vol", Title: "Section 4.2: volatility contrast (10% vs 80% updates)", Run: Volatility},
		{ID: "sel", Title: "Section 4.2: selectivity sweep (precision vs selectivity factor)", Run: Selectivity},
		{ID: "compress", Title: "Section 4.4 extension: compression ratios per distribution (postponing forgetting)", Run: CompressRatios},
		{ID: "drift", Title: "Section 4.4 extension: distribution drift of the active set per strategy (TV distance)", Run: Drift},
		{ID: "fig3e", Title: "Figure 3 with error bars: mean ± sd over 5 seeds, zipfian data", Run: Fig3ErrorBars},
		{ID: "sweep", Title: "Beyond the paper: final and mean precision per strategy x distribution x volatility", Run: Sweep},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// baseConfig is the paper's shared parameter block: dbsize=1000, 10
// batches, 1000 queries per batch.
func baseConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// Fig1 regenerates the Figure 1 amnesia map: dbsize=1000, upd-perc=0.20,
// 10 batches, strategies fifo/uniform/ante/area, uniform data (the figure
// notes data distribution plays no role for these four).
func Fig1(w io.Writer, seed uint64) error {
	cfg := baseConfig(seed)
	cfg.UpdatePerc = 0.20
	results, err := sim.RunAll(cfg, MapStrategies)
	if err != nil {
		return err
	}
	if err := report.WriteMapCSV(w, results); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return report.WriteHeatMap(w, results)
}

// Fig2 regenerates the Figure 2 rot map: the rot strategy under all four
// data distributions, same budget as Figure 1.
func Fig2(w io.Writer, seed uint64) error {
	var results []*sim.Result
	for _, d := range dist.Kinds {
		cfg := baseConfig(seed)
		cfg.UpdatePerc = 0.20
		cfg.Strategy = "rot"
		cfg.Distribution = d
		r, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		r.Series.Name = d.String()
		results = append(results, r)
	}
	if err := report.WriteMapCSV(w, results); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return report.WriteHeatMap(w, results)
}

// fig3 runs the Figure 3 range-precision experiment for one distribution.
func fig3(w io.Writer, seed uint64, d dist.Kind) error {
	cfg := baseConfig(seed)
	cfg.UpdatePerc = 0.80
	cfg.Distribution = d
	results, err := sim.RunAll(cfg, PaperStrategies)
	if err != nil {
		return err
	}
	series := seriesOf(results)
	if err := report.WriteSeriesCSV(w, series); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return report.WriteChart(w, series, 12)
}

// Fig3Extensions reruns the Figure 3 pipeline on zipfian data with the
// repository's extension strategies next to the uniform baseline. The
// value-space area variant (areav) is the interpretation under which the
// paper's "area retains precision better" claim reproduces: forgetting
// clusters in the value domain, so queries centred on retained data
// rarely cross a hole.
func Fig3Extensions(w io.Writer, seed uint64) error {
	cfg := baseConfig(seed)
	cfg.UpdatePerc = 0.80
	cfg.Distribution = dist.Zipf
	results, err := sim.RunAll(cfg, []string{"uniform", "area", "areav", "pairwise", "distaligned"})
	if err != nil {
		return err
	}
	series := seriesOf(results)
	if err := report.WriteSeriesCSV(w, series); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return report.WriteChart(w, series, 12)
}

// Fig3Normal regenerates the top panel of Figure 3 (normal data).
func Fig3Normal(w io.Writer, seed uint64) error { return fig3(w, seed, dist.Normal) }

// Fig3Zipf regenerates the bottom panel of Figure 3 (zipfian data).
func Fig3Zipf(w io.Writer, seed uint64) error { return fig3(w, seed, dist.Zipf) }

// AggPrecision regenerates the §4.3 aggregate experiment: SELECT AVG(a)
// FROM t over a doubled run length, reporting per-batch tuple precision
// and mean relative AVG error for every strategy.
func AggPrecision(w io.Writer, seed uint64) error {
	var series []*metrics.Series
	var aggSeries []*metrics.Series
	for _, s := range PaperStrategies {
		cfg := baseConfig(seed)
		cfg.UpdatePerc = 0.80
		cfg.Batches = 20 // "we increased the experimental run length"
		cfg.Strategy = s
		cfg.Queries = sim.AggQueries
		cfg.QueriesPerBatch = 200
		r, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		series = append(series, &r.Series)
		agg := &metrics.Series{Name: s + "-avg-err"}
		for _, p := range r.Series.Points {
			// Re-plot 1-error so the chart shares the precision axis.
			agg.Points = append(agg.Points, metrics.Point{
				Batch:     p.Batch,
				Precision: clamp01(1 - p.AggregateErr),
			})
		}
		aggSeries = append(aggSeries, agg)
	}
	fmt.Fprintln(w, "# tuple-level precision of AVG queries")
	if err := report.WriteSeriesCSV(w, series); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n# 1 - mean relative AVG error")
	if err := report.WriteSeriesCSV(w, aggSeries); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return report.WriteChart(w, series, 12)
}

// Volatility regenerates the §4.2 volatility contrast: the uniform-range
// experiment at 10% and 80% update volatility for every strategy.
func Volatility(w io.Writer, seed uint64) error {
	var series []*metrics.Series
	for _, pct := range []float64{0.10, 0.80} {
		for _, s := range PaperStrategies {
			cfg := baseConfig(seed)
			cfg.UpdatePerc = pct
			cfg.Strategy = s
			cfg.QueriesPerBatch = 500
			r, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			r.Series.Name = fmt.Sprintf("%s@%d%%", s, int(pct*100))
			series = append(series, &r.Series)
		}
	}
	if err := report.WriteSeriesCSV(w, series); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return report.WriteChart(w, series, 12)
}

// Selectivity regenerates the §4.2 claim that "increasing the selectivity
// factor does not improve the precision": final-batch precision per
// strategy across selectivity factors.
func Selectivity(w io.Writer, seed uint64) error {
	factors := []float64{0.01, 0.05, 0.20, 0.50, 1.0}
	fmt.Fprint(w, "strategy")
	for _, f := range factors {
		fmt.Fprintf(w, ",S=%.2f", f)
	}
	fmt.Fprintln(w)
	for _, s := range PaperStrategies {
		fmt.Fprint(w, s)
		for _, f := range factors {
			cfg := baseConfig(seed)
			cfg.UpdatePerc = 0.80
			cfg.Strategy = s
			cfg.Selectivity = f
			cfg.QueriesPerBatch = 300
			r, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			ps := r.Series.Precisions()
			fmt.Fprintf(w, ",%.4f", ps[len(ps)-1])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig3ErrorBars reruns the Figure 3 zipfian panel over five seeds per
// strategy and reports mean ± sample standard deviation per batch. The
// paper plots single runs; the tiny deviations here (the precision is
// dominated by the deterministic active/stored ratio) justify that
// practice quantitatively.
func Fig3ErrorBars(w io.Writer, seed uint64) error {
	const seeds = 5
	fmt.Fprint(w, "batch")
	for _, s := range PaperStrategies {
		fmt.Fprintf(w, ",%s_mean,%s_sd", s, s)
	}
	fmt.Fprintln(w)
	var stats []*sim.SeedStats
	for _, s := range PaperStrategies {
		cfg := baseConfig(seed)
		cfg.UpdatePerc = 0.80
		cfg.Distribution = dist.Zipf
		cfg.Strategy = s
		cfg.QueriesPerBatch = 300
		st, err := sim.RunSeeds(cfg, seeds)
		if err != nil {
			return err
		}
		stats = append(stats, st)
	}
	for bi, b := range stats[0].Batches {
		fmt.Fprintf(w, "%d", b)
		for _, st := range stats {
			fmt.Fprintf(w, ",%.4f,%.4f", st.Mean[bi], st.StdDev[bi])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Sweep walks every registered strategy across the four distributions
// and four update volatilities — the parameter space beyond the paper's
// fixed configurations — and reports each cell's final-batch and mean
// precision, to show where strategies cross over.
func Sweep(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "strategy,distribution,volatility,final_precision,mean_precision")
	for _, s := range amnesia.Names() {
		for _, d := range dist.Kinds {
			for _, v := range []float64{0.1, 0.2, 0.5, 0.8} {
				cfg := baseConfig(seed)
				cfg.QueriesPerBatch = 300
				cfg.Strategy = s
				cfg.Distribution = d
				cfg.UpdatePerc = v
				r, err := sim.Run(cfg)
				if err != nil {
					return err
				}
				ps := r.Series.Precisions()
				var mean float64
				for _, p := range ps {
					mean += p
				}
				mean /= float64(len(ps))
				fmt.Fprintf(w, "%s,%s,%.2f,%.4f,%.4f\n", s, d, v, ps[len(ps)-1], mean)
			}
		}
	}
	return nil
}

// RenderPNG regenerates one of the graphical experiments (fig1, fig2,
// fig3a, fig3b, fig3x) as a PNG written to w. Non-graphical experiment
// ids are rejected.
func RenderPNG(w io.Writer, id string, seed uint64) error {
	switch id {
	case "fig1":
		cfg := baseConfig(seed)
		cfg.UpdatePerc = 0.20
		results, err := sim.RunAll(cfg, MapStrategies)
		if err != nil {
			return err
		}
		return report.WriteMapPNG(w, results, 0, 0)
	case "fig2":
		var results []*sim.Result
		for _, d := range dist.Kinds {
			cfg := baseConfig(seed)
			cfg.UpdatePerc = 0.20
			cfg.Strategy = "rot"
			cfg.Distribution = d
			r, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			r.Series.Name = d.String()
			results = append(results, r)
		}
		return report.WriteMapPNG(w, results, 0, 0)
	case "fig3a", "fig3b":
		d := dist.Normal
		if id == "fig3b" {
			d = dist.Zipf
		}
		cfg := baseConfig(seed)
		cfg.UpdatePerc = 0.80
		cfg.Distribution = d
		results, err := sim.RunAll(cfg, PaperStrategies)
		if err != nil {
			return err
		}
		return report.WriteSeriesPNG(w, seriesOf(results), 0, 0)
	case "fig3x":
		cfg := baseConfig(seed)
		cfg.UpdatePerc = 0.80
		cfg.Distribution = dist.Zipf
		results, err := sim.RunAll(cfg, []string{"uniform", "area", "areav", "pairwise", "distaligned"})
		if err != nil {
			return err
		}
		return report.WriteSeriesPNG(w, seriesOf(results), 0, 0)
	}
	return fmt.Errorf("exp: experiment %q has no PNG rendering", id)
}

// CompressRatios quantifies the §4.4 option of compressing cold data
// instead of forgetting it: for each data distribution it freezes a
// 100k-tuple column with each codec and reports the compression ratio —
// how many batches of forgetting a freeze can postpone at equal budget.
func CompressRatios(w io.Writer, seed uint64) error {
	const n = 100000
	codecs := []compress.Codec{compress.RLE{}, compress.Delta{}, compress.FOR{}, compress.Auto{}}
	fmt.Fprint(w, "distribution")
	for _, c := range codecs {
		fmt.Fprintf(w, ",%s", c.Name())
	}
	fmt.Fprintln(w)
	for _, d := range dist.Kinds {
		gen := dist.NewGenerator(d, 100000, xrand.New(seed))
		vals := gen.Batch(nil, n)
		fmt.Fprint(w, d)
		for _, c := range codecs {
			f := compress.Freeze(vals, c, 0)
			fmt.Fprintf(w, ",%.2fx", f.Ratio())
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Drift measures, per batch, the total-variation distance between the
// active set's value distribution and the distribution of everything ever
// inserted — the alignment §4.4's distribution-aware forgetting aims to
// minimise. Run on zipfian data where careless forgetting distorts the
// shape most visibly; distaligned should hold the lowest curve.
func Drift(w io.Writer, seed uint64) error {
	strategies := []string{"fifo", "uniform", "ante", "rot", "area", "pairwise", "distaligned"}
	const (
		dbsize  = 1000
		batches = 10
		bins    = 16
	)
	fmt.Fprint(w, "batch")
	for _, s := range strategies {
		fmt.Fprintf(w, ",%s", s)
	}
	fmt.Fprintln(w)
	drift := make([][]float64, batches)
	for i := range drift {
		drift[i] = make([]float64, len(strategies))
	}
	for si, stratName := range strategies {
		root := xrand.New(seed)
		gen := dist.NewGenerator(dist.Zipf, 100000, root.Split())
		strat, err := amnesia.New(stratName, "a", root.Split())
		if err != nil {
			return err
		}
		tb := table.New("t", "a")
		querySrc := root.Split()
		ex := engine.New(tb)
		rg := workload.NewRangeGen(querySrc, "a")
		if _, err := tb.AppendSingleColumn(gen.Batch(nil, dbsize)); err != nil {
			return err
		}
		for b := 0; b < batches; b++ {
			if _, err := workload.RunRangeBatch(ex, rg, 100); err != nil {
				return err
			}
			if _, err := tb.AppendSingleColumn(gen.Batch(nil, dbsize/5)); err != nil {
				return err
			}
			strat.Forget(tb, tb.ActiveCount()-dbsize)
			c := tb.MustColumn("a")
			all := histogram.FromValues(c.Values(), bins)
			active := histogram.New(bins, maxOf(c.Values()))
			for _, i := range tb.ActiveIndices() {
				active.Add(c.Get(i))
			}
			drift[b][si] = all.TVDistance(active)
		}
	}
	for b := 0; b < batches; b++ {
		fmt.Fprintf(w, "%d", b+1)
		for si := range strategies {
			fmt.Fprintf(w, ",%.4f", drift[b][si])
		}
		fmt.Fprintln(w)
	}
	return nil
}

func maxOf(vals []int64) int64 {
	var max int64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	return max
}

func seriesOf(results []*sim.Result) []*metrics.Series {
	out := make([]*metrics.Series, len(results))
	for i, r := range results {
		out[i] = &r.Series
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
