// Ablation benchmarks for two design choices of the amnesia layer: the
// area mold count and summary accuracy. Each reports a domain metric so a
// parameter's effect is visible next to its cost. The anterograde-bias
// and rot high-water-mark ablations run the simulator's workload, so they
// live with it under experiments/.
package amnesiadb_test

import (
	"strconv"
	"testing"

	"amnesiadb/internal/amnesia"
	"amnesiadb/internal/summary"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// BenchmarkAblationAreaK sweeps the number of concurrent mold areas and
// reports how fragmented the forgotten set ends up (fewer, larger holes
// versus many small ones).
func BenchmarkAblationAreaK(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		k := k
		b.Run(name("K", float64(k)), func(b *testing.B) {
			var runs float64
			for i := 0; i < b.N; i++ {
				tb := table.New("t", "a")
				src := xrand.New(1)
				vals := make([]int64, 10000)
				for j := range vals {
					vals[j] = src.Int63n(100000)
				}
				if _, err := tb.AppendSingleColumn(vals); err != nil {
					b.Fatal(err)
				}
				amnesia.NewArea(xrand.New(2), k).Forget(tb, 4000)
				// Count forgotten runs along the timeline.
				n, inRun := 0, false
				for j := 0; j < tb.Len(); j++ {
					if !tb.IsActive(j) {
						if !inRun {
							n++
							inRun = true
						}
					} else {
						inRun = false
					}
				}
				runs = float64(n)
			}
			b.ReportMetric(runs, "forgotten-runs")
		})
	}
}

// BenchmarkSummaryAccuracy measures the summary fate: absorb a forgotten
// majority into segments and report the exactness of the reconstructed
// all-time average (relative error; 0 means lossless).
func BenchmarkSummaryAccuracy(b *testing.B) {
	src := xrand.New(1)
	var relErr float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := table.New("t", "a")
		vals := make([]int64, 100000)
		var sum float64
		for j := range vals {
			vals[j] = src.Int63n(1 << 20)
			sum += float64(vals[j])
		}
		trueAvg := sum / float64(len(vals))
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(vals)*9/10; j++ {
			tb.Forget(j)
		}
		book, err := summary.NewBook(tb, "a")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		book.Absorb()
		est, err := book.FullAvg()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		relErr = abs(est.Avg-trueAvg) / trueAvg
	}
	b.ReportMetric(relErr, "avg-rel-err")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func name(prefix string, v float64) string {
	return prefix + "=" + strconv.FormatFloat(v, 'g', -1, 64)
}
