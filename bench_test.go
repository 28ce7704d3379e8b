// Benchmarks regenerating every figure and table of the paper's
// evaluation (§4). Each benchmark runs the corresponding experiment from
// the internal/exp registry end to end and reports domain metrics
// (final-batch precision, retention percentages) alongside timing, so
// `go test -bench=.` both exercises the full pipeline and exposes whether
// the reproduced shapes still hold. EXPERIMENTS.md records the series.
package amnesiadb_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"amnesiadb"
	"amnesiadb/internal/amnesia"
	"amnesiadb/internal/bitvec"
	"amnesiadb/internal/column"
	"amnesiadb/internal/dist"
	"amnesiadb/internal/engine"
	"amnesiadb/internal/exp"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/sim"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

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
		cfg.UpdatePerc = 0.20
		results, err := sim.RunAll(cfg, exp.MapStrategies)
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
		var batch0 []float64
		for _, d := range dist.Kinds {
			cfg := sim.DefaultConfig()
			cfg.Seed = benchSeed
			cfg.UpdatePerc = 0.20
			cfg.Strategy = "rot"
			cfg.Distribution = d
			r, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			batch0 = append(batch0, r.ActivePercent()[0])
		}
		min, max := batch0[0], batch0[0]
		for _, v := range batch0 {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		spread = max - min
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
				results, err := sim.RunAll(cfg, exp.PaperStrategies)
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
		r, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pts := r.Series.Points
		avgErr = pts[len(pts)-1].AggregateErr
	}
	b.ReportMetric(avgErr, "uniform-final-avg-rel-err")
}

// BenchmarkVolatilitySweep regenerates the §4.2 volatility contrast and
// reports the precision gap between 10% and 80% update volatility for the
// uniform strategy at the final batch.
func BenchmarkVolatilitySweep(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		finals := map[float64]float64{}
		for _, pct := range []float64{0.10, 0.80} {
			cfg := sim.DefaultConfig()
			cfg.Seed = benchSeed
			cfg.UpdatePerc = pct
			cfg.Strategy = "uniform"
			cfg.QueriesPerBatch = 500
			r, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ps := r.Series.Precisions()
			finals[pct] = ps[len(ps)-1]
		}
		gap = finals[0.10] - finals[0.80]
	}
	b.ReportMetric(gap, "low-vs-high-volatility-gap")
}

// BenchmarkSelectivitySweep regenerates the §4.2 selectivity claim and
// reports the precision difference between S=0.01 and S=1.0 for uniform
// amnesia (the paper: increasing S does not improve precision).
func BenchmarkSelectivitySweep(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		finals := map[float64]float64{}
		for _, s := range []float64{0.01, 1.0} {
			cfg := sim.DefaultConfig()
			cfg.Seed = benchSeed
			cfg.UpdatePerc = 0.80
			cfg.Strategy = "uniform"
			cfg.Selectivity = s
			cfg.QueriesPerBatch = 300
			r, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ps := r.Series.Precisions()
			finals[s] = ps[len(ps)-1]
		}
		delta = finals[1.0] - finals[0.01]
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
				if err := e.Run(io.Discard, benchSeed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Vectorized execution benchmarks -----------------------------------
//
// The benchmarks below measure the batch/selection-vector path against an
// inline row-at-a-time baseline equivalent to the pre-vectorization
// engine (ScanRangeActive materializing a fresh position slice, then one
// Get per row). ReportAllocs makes the allocation win visible next to
// the timing: the fused aggregate path allocates O(1) per query while
// the baseline allocates the full intermediate result.

// benchTable builds a budget-constrained table with a realistic
// active/forgotten mix for scan benchmarks.
func benchTable(b *testing.B, n int) *amnesiadb.Table {
	b.Helper()
	db := amnesiadb.Open(amnesiadb.Options{Seed: benchSeed})
	tb, err := db.CreateTable("bench", "a")
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "uniform", Budget: n / 2}); err != nil {
		b.Fatal(err)
	}
	src := xrand.New(benchSeed)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = src.Int63n(100000)
	}
	if err := tb.InsertColumn("a", vals); err != nil {
		b.Fatal(err)
	}
	return tb
}

// benchEngineTable builds the same shape directly on the internal layers
// so baseline comparisons bypass facade locking.
func benchEngineTable(b *testing.B, n int) *table.Table {
	b.Helper()
	src := xrand.New(benchSeed)
	tb := table.New("bench", "a")
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = src.Int63n(100000)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		tb.Forget(i)
	}
	return tb
}

// BenchmarkActiveScanVectorized measures the batch pipeline end to end
// through the facade: zone-pruned block scan, pooled batches, one touch
// flush.
func BenchmarkActiveScanVectorized(b *testing.B) {
	tb := benchTable(b, 100000)
	p := amnesiadb.Range(20000, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Select("a", p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActiveScanRowAtATime is the pre-vectorization baseline: an
// unbounded ScanRangeActive materialization followed by one Get per row.
func BenchmarkActiveScanRowAtATime(b *testing.B) {
	tb := benchEngineTable(b, 100000)
	c := tb.MustColumn("a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := c.ScanRangeActive(20000, 40000, tb.Active(), nil)
		values := make([]int64, 0, len(rows))
		for _, r := range rows {
			values = append(values, c.Get(int(r)))
		}
		tb.TouchMany(rows)
		_ = values
	}
}

// BenchmarkFusedAggregate measures the one-pass vectorized aggregate: no
// intermediate Result, batches folded straight into the accumulator.
func BenchmarkFusedAggregate(b *testing.B) {
	tb := benchEngineTable(b, 100000)
	ex := engine.NewSilent(tb)
	pred := expr.NewRange(20000, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Aggregate("a", pred, engine.ScanActive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateRowAtATime is the baseline the fused pass replaced:
// materialize the full selection, then reduce it.
func BenchmarkAggregateRowAtATime(b *testing.B) {
	tb := benchEngineTable(b, 100000)
	c := tb.MustColumn("a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := c.ScanRangeActive(20000, 40000, tb.Active(), nil)
		values := make([]int64, 0, len(rows))
		for _, r := range rows {
			values = append(values, c.Get(int(r)))
		}
		var count int
		var sum int64
		for _, v := range values {
			count++
			sum += v
		}
		if count == 0 {
			b.Fatal("empty aggregate")
		}
	}
}

// BenchmarkParallelActiveScan measures read-path scaling under the
// RWMutex facade: all procs hammer Select on one table concurrently.
func BenchmarkParallelActiveScan(b *testing.B) {
	tb := benchTable(b, 100000)
	p := amnesiadb.Range(20000, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := tb.Select("a", p); err != nil {
				// Fatal must not run off the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPrecisionVectorized measures the §2.3 metric path whose
// ground-truth pass now runs in counting mode (no materialization).
func BenchmarkPrecisionVectorized(b *testing.B) {
	tb := benchEngineTable(b, 100000)
	ex := engine.New(tb)
	pred := expr.NewRange(20000, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ex.Precision("a", pred); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Kernel ledger -------------------------------------------------------
//
// The three benchmarks below are the in-repo view of the read ladder's
// bottom rungs: the mask-first column kernels over 4 Mi rows next to a
// plain sum over the same values (the memory roofline), in ns per stored
// row, so a kernel change shows its distance from the roofline without
// the full amnesiaperf ladder.

const kernelRows = 4 << 20

// kernelColumn builds the ledger fixture: values uniform over [0, 2^30)
// and an active bitmap with a quarter of the rows forgotten.
func kernelColumn() (*column.Int64, *bitvec.Vector) {
	src := xrand.New(benchSeed)
	vals := make([]int64, kernelRows)
	active := bitvec.New(kernelRows)
	for i := range vals {
		vals[i] = src.Int63n(1 << 30)
		if src.Bool(0.75) {
			active.Set(i)
		}
	}
	c := column.New()
	c.AppendSlice(vals)
	return c, active
}

// kernelRange is a range of the given selectivity inside the domain.
func kernelRange(pct float64) (lo, hi int64) {
	lo = 1 << 28
	return lo, lo + int64(pct/100*(1<<30))
}

var kernelSink int64

// BenchmarkMemSum is the roofline: one pass over the values, no predicate.
func BenchmarkMemSum(b *testing.B) {
	c, _ := kernelColumn()
	vals := c.Values()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s int64
		for _, v := range vals {
			s += v
		}
		kernelSink += s
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/kernelRows, "ns/row")
}

// BenchmarkScanKernel times the ScanBatchRange resume loop (ns/row) and
// the count-only kernel (count-ns/row) per selectivity, with and without
// an active bitmap. The count figure is the bare mask cost and must not
// depend on selectivity; the scan figure adds position emission.
func BenchmarkScanKernel(b *testing.B) {
	c, bitmap := kernelColumn()
	sel := make([]int32, engine.BatchSize)
	val := make([]int64, engine.BatchSize)
	for _, pct := range []float64{0.1, 1, 5, 25, 50} {
		for _, mode := range []string{"active", "nil"} {
			b.Run(fmt.Sprintf("%gpct/%s", pct, mode), func(b *testing.B) {
				lo, hi := kernelRange(pct)
				var active *bitvec.Vector
				if mode == "active" {
					active = bitmap
				}
				var scan, count time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					for pos := 0; pos < c.Len(); {
						var n int
						n, pos = c.ScanBatchRange(lo, hi, active, pos, c.Len(), sel, val)
						kernelSink += int64(n)
					}
					t1 := time.Now()
					kernelSink += int64(c.CountRangeIn(lo, hi, active, 0, c.Len()))
					scan += t1.Sub(t0)
					count += time.Since(t1)
				}
				b.ReportMetric(float64(scan.Nanoseconds())/float64(b.N)/kernelRows, "ns/row")
				b.ReportMetric(float64(count.Nanoseconds())/float64(b.N)/kernelRows, "count-ns/row")
			})
		}
	}
}

// BenchmarkAggregateKernel times the fused count/sum/min/max fold at
// scan_stream's two aggregate selectivities, incrementing the folded
// rows' access counts in the same pass as a touching aggregate does.
// BenchmarkScanKernel's count-ns/row, the bare mask cost, is its floor.
func BenchmarkAggregateKernel(b *testing.B) {
	c, active := kernelColumn()
	counts := make([]uint32, kernelRows)
	for _, pct := range []float64{25, 50} {
		b.Run(fmt.Sprintf("%gpct", pct), func(b *testing.B) {
			lo, hi := kernelRange(pct)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, sum, _, _ := c.AggregateRangeIn(lo, hi, active, 0, c.Len(), counts)
				kernelSink += int64(n) + sum
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/kernelRows, "ns/row")
		})
	}
}

// BenchmarkForget prices one budget enforcement at the serving
// system's steady state: a table held at 64 Ki or 1 Mi active tuples, a
// 4096-row batch arriving (untimed), and the strategy forgetting 4096
// to restore the budget (timed), with a Vacuum every 64 batches as the
// ingest workload does. ns/row is per forgotten tuple. The
// sampler-backed strategies (ante, rot, frequent, decay) reuse their
// scratch, so their steady-state allocs/op stay at or below 2.
func BenchmarkForget(b *testing.B) {
	const batch = 4096
	for _, name := range []string{"fifo", "uniform", "ante", "rot", "frequent", "decay"} {
		for _, size := range []struct {
			label  string
			budget int
		}{{"64Ki", 64 << 10}, {"1Mi", 1 << 20}} {
			b.Run(name+"/"+size.label, func(b *testing.B) {
				src := xrand.New(benchSeed)
				tb := table.New("bench", "a")
				vals := make([]int64, batch)
				touched := make([]int32, 0, batch)
				arrive := func() {
					for i := range vals {
						vals[i] = src.Int63n(1 << 30)
					}
					if _, err := tb.AppendSingleColumn(vals); err != nil {
						b.Fatal(err)
					}
					// A query's worth of access-count feedback.
					touched = touched[:0]
					for i := 0; i < batch/4; i++ {
						touched = append(touched, int32(src.Intn(tb.Len())))
					}
					tb.TouchMany(touched)
				}
				for tb.Len() < size.budget {
					arrive()
				}
				strat, err := amnesia.New(name, "a", src.Split())
				if err != nil {
					b.Fatal(err)
				}
				// Warm the strategy's scratch to its steady-state size.
				for i := 0; i < 64; i++ {
					arrive()
					strat.Forget(tb, batch)
				}
				tb.Vacuum()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if i%64 == 63 {
						tb.Vacuum()
					}
					arrive()
					b.StartTimer()
					if got := strat.Forget(tb, batch); len(got) != batch {
						b.Fatalf("forgot %d, want %d", len(got), batch)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
			})
		}
	}
}

// BenchmarkNarrowQuery times hot_small's two statements uncached through
// the facade — top-10 by score and COUNT(*), both over a 64-id range —
// on a table of permuted ids with an eighth forgotten, at 1 Ki and
// 256 Ki rows. A full scan makes the big table's queries several times
// the small one's; the value-order index answers both sizes in about
// the same time (the 1 Ki table is below one morsel and scans).
func BenchmarkNarrowQuery(b *testing.B) {
	for _, n := range []int{1 << 10, 256 << 10} {
		src := xrand.New(benchSeed)
		db := amnesiadb.Open(amnesiadb.Options{Seed: benchSeed})
		tb, err := db.CreateTable("mem", "id", "score")
		if err != nil {
			b.Fatal(err)
		}
		cols := map[string][]int64{"id": make([]int64, n), "score": make([]int64, n)}
		for _, c := range []string{"id", "score"} {
			for i, v := range src.Perm(n) {
				cols[c][i] = int64(v)
			}
		}
		if err := tb.Insert(cols); err != nil {
			b.Fatal(err)
		}
		if err := tb.SetPolicy(amnesiadb.Policy{Strategy: "fifo", Budget: n - n/8}); err != nil {
			b.Fatal(err)
		}
		if err := tb.EnforceBudget(); err != nil {
			b.Fatal(err)
		}
		for _, stmt := range []struct{ name, sql string }{
			{"topk", "SELECT id, score FROM mem WHERE id >= %d AND id < %d ORDER BY score LIMIT 10"},
			{"count", "SELECT COUNT(*) FROM mem WHERE id >= %d AND id < %d"},
		} {
			b.Run(fmt.Sprintf("%s/rows=%d", stmt.name, n), func(b *testing.B) {
				stmts := make([]string, 64)
				for i := range stmts {
					k := src.Int63n(int64(n - 64))
					stmts[i] = fmt.Sprintf(stmt.sql, k, k+64)
				}
				if _, err := db.Query(stmts[0]); err != nil { // builds any index
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(stmts[i%len(stmts)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSQLJoin prices the SQL JOIN front-end against the direct
// DB.Join over the same data: a probe side of 1 Mi rows and a build
// side of 128 Ki, keys uniform over a 2^20 domain. The sql case pays for
// parse, plan and float64 projection on top of the identical hash join,
// so the difference of the two ns/op is the SQL surface's cost per join.
func BenchmarkSQLJoin(b *testing.B) {
	const n = 1 << 20
	db := amnesiadb.Open(amnesiadb.Options{Seed: benchSeed})
	src := xrand.New(benchSeed)
	mk := func(name string, rows int) *amnesiadb.Table {
		tb, err := db.CreateTable(name, "k")
		if err != nil {
			b.Fatal(err)
		}
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = src.Int63n(1 << 20)
		}
		if err := tb.InsertColumn("k", vals); err != nil {
			b.Fatal(err)
		}
		return tb
	}
	probe, build := mk("probe", n), mk("build", n/8)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := db.Join(context.Background(), probe, "k", build, "k", amnesiadb.All())
			if err != nil || len(rows) == 0 {
				b.Fatalf("direct join: %d rows, %v", len(rows), err)
			}
		}
	})
	b.Run("sql", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := db.Query("SELECT probe.k, build.k FROM probe JOIN build ON probe.k = build.k")
			if err != nil || len(res.Rows) == 0 {
				b.Fatalf("sql join: %v", err)
			}
		}
	})
}
