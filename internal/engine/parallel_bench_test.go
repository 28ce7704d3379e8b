package engine

import (
	"context"
	"runtime"
	"testing"

	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// benchRows is large enough (≥ 4M) that the morsel scheduler has ~64
// morsels to spread across cores; the speedup target is ≥ 2x at
// GOMAXPROCS ≥ 4 with results byte-identical to the serial path (the
// equivalence tests in parallel_test.go enforce that).
const benchRows = 4 << 20

var benchTableCache *table.Table

func bigBenchTable(b *testing.B) *table.Table {
	b.Helper()
	if benchTableCache != nil {
		return benchTableCache
	}
	src := xrand.New(1)
	tb := table.New("bench", "a")
	vals := make([]int64, benchRows)
	for i := range vals {
		vals[i] = src.Int63n(1 << 20)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRows; i += 2 {
		tb.Forget(i)
	}
	benchTableCache = tb
	return tb
}

// benchExec returns a silent executor at the given parallelism so the
// benchmark measures the scan, not the touch flush.
func benchExec(b *testing.B, par int) *Exec {
	ex := NewSilent(bigBenchTable(b))
	ex.SetParallelism(par)
	return ex
}

func parallelSettings() []struct {
	name string
	par  int
} {
	return []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"parallel", 0}, // auto: GOMAXPROCS workers at this table size
	}
}

// BenchmarkParallelSelect measures the morsel-driven Select against the
// serial path over the same 4M-row table and predicate (~12%
// selectivity).
func BenchmarkParallelSelect(b *testing.B) {
	pred := expr.NewRange(1<<18, 1<<19)
	for _, s := range parallelSettings() {
		b.Run(s.name, func(b *testing.B) {
			ex := benchExec(b, s.par)
			b.ReportAllocs()
			b.SetBytes(benchRows * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Select("a", pred, ScanActive); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
		})
	}
}

// BenchmarkParallelAggregate measures the fused aggregate with
// per-worker partials against the serial fold. The parallel path must
// stay allocation-flat per batch: worker-local pooled batches, no
// per-row allocation anywhere.
func BenchmarkParallelAggregate(b *testing.B) {
	pred := expr.NewRange(1<<18, 1<<19)
	for _, s := range parallelSettings() {
		b.Run(s.name, func(b *testing.B) {
			ex := benchExec(b, s.par)
			b.ReportAllocs()
			b.SetBytes(benchRows * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Aggregate("a", pred, ScanActive); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
		})
	}
}

// BenchmarkParallelJoin measures the full join pipeline — parallel
// collection of both sides, radix-partitioned hash build, morsel-driven
// probe — against the serial path. The probe side is the 4M-row bench
// table; the build side is 512K rows over the same key domain, so most
// probe tuples find matches.
func BenchmarkParallelJoin(b *testing.B) {
	probeTbl := bigBenchTable(b)
	src := xrand.New(2)
	buildTbl := table.New("build", "a")
	vals := make([]int64, 512<<10)
	for i := range vals {
		vals[i] = src.Int63n(1 << 20)
	}
	if _, err := buildTbl.AppendSingleColumn(vals); err != nil {
		b.Fatal(err)
	}
	for _, s := range parallelSettings() {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes((benchRows + int64(len(vals))) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := HashJoin(context.Background(), nil, probeTbl, "a", buildTbl, "a", nil, ScanActive, s.par)
				if err != nil {
					b.Fatal(err)
				}
				if res.Count() == 0 {
					b.Fatal("empty join")
				}
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
		})
	}
}

// BenchmarkParallelCount measures the counting path (COUNT(*) and the
// Precision ground truth): pure per-morsel tallies, no materialization.
func BenchmarkParallelCount(b *testing.B) {
	pred := expr.NewRange(1<<18, 1<<19)
	for _, s := range parallelSettings() {
		b.Run(s.name, func(b *testing.B) {
			ex := benchExec(b, s.par)
			c := ex.Table().MustColumn("a")
			b.ReportAllocs()
			b.SetBytes(benchRows * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := ex.countMatches(c, pred, ScanActive); err != nil || n == 0 {
					b.Fatal("empty count")
				}
			}
		})
	}
}
