package experiments_test

import (
	"io"
	"strconv"
	"testing"

	"amnesiadb/experiments/internal/dist"
	"amnesiadb/experiments/internal/exp"
	"amnesiadb/experiments/internal/sim"
	"amnesiadb/experiments/internal/workload"
	"amnesiadb/internal/amnesia"
	"amnesiadb/internal/engine"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// Benchmarks regenerating the figures and tables of the paper's
// evaluation (§4) from the exp registry end to end, each reporting a
// domain metric (final-batch precision, retention percentages) beside
// its timing, so `go test -bench=.` also shows whether the reproduced
// shapes still hold. testdata/ records the full outputs.

// benchSeed keeps benchmark runs comparable across invocations.
const benchSeed = 1

// BenchmarkFig1AmnesiaMap regenerates Figure 1 (amnesia map after 10
// update batches; dbsize=1000, upd-perc=0.20, strategies
// fifo/uniform/ante/area) and reports the initial-batch retention of the
// anterograde strategy — the feature the figure highlights.
func BenchmarkFig1AmnesiaMap(b *testing.B) {
	var anteBatch0 float64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Seed = benchSeed
		results, err := sim.RunAll(b.Context(), cfg, exp.MapStrategies)
		if err != nil {
			b.Fatal(err)
		}
		anteBatch0 = results[2].ActivePercent()[0]
	}
	b.ReportMetric(anteBatch0, "ante-batch0-%active")
}

// BenchmarkFig2RotMap regenerates Figure 2 (rot map per data
// distribution) and reports how differently rot retains serial vs zipfian
// data, the figure's headline contrast.
func BenchmarkFig2RotMap(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		lo, hi := 100.0, 0.0
		for _, d := range dist.Kinds {
			cfg := sim.DefaultConfig()
			cfg.Seed = benchSeed
			cfg.Strategy = "rot"
			cfg.Distribution = d
			r, err := sim.Run(b.Context(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			p := r.ActivePercent()[0]
			lo, hi = min(lo, p), max(hi, p)
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "batch0-retention-spread-pts")
}

// BenchmarkFig3RangePrecision regenerates both panels of Figure 3 (range
// query precision under 80% volatility, normal and zipfian data, all five
// strategies) and reports the final-batch precision of the best (area)
// and worst (fifo) lines.
func BenchmarkFig3RangePrecision(b *testing.B) {
	for _, d := range []dist.Kind{dist.Normal, dist.Zipf} {
		b.Run(d.String(), func(b *testing.B) {
			var fifoLast, areaLast float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.Seed = benchSeed
				cfg.UpdatePerc = 0.80
				cfg.Distribution = d
				results, err := sim.RunAll(b.Context(), cfg, exp.PaperStrategies)
				if err != nil {
					b.Fatal(err)
				}
				fp := results[0].Series.Precisions()
				ap := results[4].Series.Precisions()
				fifoLast, areaLast = fp[len(fp)-1], ap[len(ap)-1]
			}
			b.ReportMetric(fifoLast, "fifo-final-precision")
			b.ReportMetric(areaLast, "area-final-precision")
		})
	}
}

// BenchmarkAggPrecision regenerates the §4.3 aggregate experiment
// (SELECT AVG(a) FROM t, doubled run length) and reports the final mean
// relative AVG error of the uniform baseline — the paper found it
// "marginal", i.e. the curve mirrors Figure 3's envelope.
func BenchmarkAggPrecision(b *testing.B) {
	var avgErr float64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig()
		cfg.Seed = benchSeed
		cfg.UpdatePerc = 0.80
		cfg.Batches = 20
		cfg.Queries = sim.AggQueries
		cfg.QueriesPerBatch = 200
		cfg.Strategy = "uniform"
		r, err := sim.Run(b.Context(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		pts := r.Series.Points
		avgErr = pts[len(pts)-1].AggregateErr
	}
	b.ReportMetric(avgErr, "uniform-final-avg-rel-err")
}

// finalPrecision runs the uniform strategy once per value of one knob,
// set by apply, and returns each run's final-batch precision.
func finalPrecision(b *testing.B, queries int, apply func(*sim.Config, float64), knobs ...float64) []float64 {
	b.Helper()
	out := make([]float64, len(knobs))
	for i, k := range knobs {
		cfg := sim.DefaultConfig()
		cfg.Seed = benchSeed
		cfg.QueriesPerBatch = queries
		apply(&cfg, k)
		r, err := sim.Run(b.Context(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		ps := r.Series.Precisions()
		out[i] = ps[len(ps)-1]
	}
	return out
}

// BenchmarkVolatilitySweep regenerates the §4.2 volatility contrast and
// reports the precision gap between 10% and 80% update volatility for the
// uniform strategy at the final batch.
func BenchmarkVolatilitySweep(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		f := finalPrecision(b, 500, func(c *sim.Config, v float64) { c.UpdatePerc = v }, 0.10, 0.80)
		gap = f[0] - f[1]
	}
	b.ReportMetric(gap, "low-vs-high-volatility-gap")
}

// BenchmarkSelectivitySweep regenerates the §4.2 selectivity claim and
// reports the precision difference between S=0.01 and S=1.0 for uniform
// amnesia (the paper: increasing S does not improve precision).
func BenchmarkSelectivitySweep(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		f := finalPrecision(b, 300, func(c *sim.Config, s float64) {
			c.UpdatePerc, c.Selectivity = 0.80, s
		}, 0.01, 1.0)
		delta = f[1] - f[0]
	}
	b.ReportMetric(delta, "S1.0-minus-S0.01-precision")
}

// BenchmarkExperimentsEndToEnd runs every registered experiment through
// its figure renderer, timing the complete regeneration path used by
// cmd/amnesiasim.
func BenchmarkExperimentsEndToEnd(b *testing.B) {
	for _, e := range exp.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(b.Context(), io.Discard, benchSeed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runMapOnce drives a strategy through the Figure 1 loop and returns the
// batch-0 retention percentage. The strategy variants it ablates have no
// facade name, so it drives the table and the strategy directly.
func runMapOnce(b *testing.B, strat amnesia.Strategy, seed uint64) float64 {
	b.Helper()
	root := xrand.New(seed)
	tb := table.New("t", "a")
	gen := dist.NewGenerator(dist.Uniform, 100000, root.Split())
	ex := engine.New(tb)
	rg := workload.NewRangeGen(root.Split())
	insert := func(n int) {
		vals := gen.Batch(nil, n)
		rg.Insert(vals)
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			b.Fatal(err)
		}
	}
	insert(1000)
	for batch := 1; batch <= 10; batch++ {
		var active []int64
		for _, i := range tb.ActiveIndices() {
			active = append(active, tb.MustColumn("a").Get(i))
		}
		for q := 0; q < 100; q++ {
			lo, hi, _ := rg.Next(active)
			if _, _, _, err := ex.Precision("a", expr.NewRange(lo, hi)); err != nil {
				b.Fatal(err)
			}
		}
		insert(200)
		strat.Forget(tb, tb.ActiveCount()-1000)
	}
	active, total := tb.ActivePerBatch()
	return 100 * float64(active[0]) / float64(total[0])
}

// BenchmarkAblationAnteBias sweeps the anterograde recency-bias exponent
// and reports initial-batch retention: the knob behind Figure 1's bright
// point 0.
func BenchmarkAblationAnteBias(b *testing.B) {
	for _, bias := range []float64{3, 6, 12, 24} {
		b.Run("bias="+strconv.FormatFloat(bias, 'g', -1, 64), func(b *testing.B) {
			var retention float64
			for i := 0; i < b.N; i++ {
				retention = runMapOnce(b, amnesia.NewAnterograde(xrand.New(1), bias), benchSeed)
			}
			b.ReportMetric(retention, "batch0-%active")
		})
	}
}

// BenchmarkAblationRotHWM sweeps the rot high-water mark. A mark of 0
// lets rot degenerate toward anterograde behaviour; larger marks protect
// fresh batches and push forgetting onto cold history.
func BenchmarkAblationRotHWM(b *testing.B) {
	for _, age := range []int{0, 1, 2, 4} {
		b.Run("minAge="+strconv.Itoa(age), func(b *testing.B) {
			var retention float64
			for i := 0; i < b.N; i++ {
				retention = runMapOnce(b, amnesia.NewRot(xrand.New(1), age), benchSeed)
			}
			b.ReportMetric(retention, "batch0-%active")
		})
	}
}
