package experiments_test

import (
	"testing"

	"amnesiadb/experiments/internal/sim"
)

// TestScaleSimulatorLargeDB runs the paper's pipeline at dbsize=20000 —
// 20x the paper — verifying the trends survive scale (the paper's §6
// "similar studies to understand the impact of scale"). Skipped with
// -short.
func TestScaleSimulatorLargeDB(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	cfg := sim.DefaultConfig()
	cfg.DBSize = 20000
	cfg.QueriesPerBatch = 100
	cfg.UpdatePerc = 0.8
	cfg.Strategy = "uniform"
	res, err := sim.Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Series.Precisions()
	// Precision tracks active/stored regardless of absolute scale.
	finalRatio := float64(cfg.DBSize) / float64(res.Stats.Tuples)
	if got := ps[len(ps)-1]; got < finalRatio*0.7 || got > finalRatio*1.3 {
		t.Fatalf("scale run precision %v, want ~%v", got, finalRatio)
	}
}
