package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"amnesiadb/internal/column"
	"amnesiadb/internal/engine"
	"amnesiadb/internal/engine/sched"
	"amnesiadb/internal/expr"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// scanResult is one machine-readable benchmark cell.
type scanResult struct {
	Bench       string  `json:"bench"`
	Rows        int     `json:"rows"`
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MorselBlocks is the effective morsel stride (in blocks) the
	// adaptive scheduler settled on — reported for the chunk-stream
	// cells, where the stride is observable. The base stride is
	// engine.MorselBlocks; growth beyond it means the scan's morsels
	// completed fast enough that the scheduler coarsened them.
	MorselBlocks int `json:"morsel_blocks,omitempty"`
}

// runScanBench measures the engine's select and aggregate paths over an
// n-row half-forgotten table, once serial and once morsel-parallel, and
// prints one JSON line per cell. Rows/sec counts rows scanned (the
// whole table per op), the throughput the morsel scheduler is meant to
// scale.
func runScanBench(n, workers int) error {
	src := xrand.New(1)
	tb := table.New("bench", "a")
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = src.Int63n(1 << 20)
	}
	if _, err := tb.AppendSingleColumn(vals); err != nil {
		return err
	}
	for i := 0; i < n; i += 2 {
		tb.Forget(i)
	}
	pred := expr.NewRange(1<<18, 1<<19) // ~12% selectivity

	// Resolve the knob the way the engine will, so the JSON reports the
	// workers that actually ran: no scan uses more workers than it has
	// morsels, and forced counts clamp to the shared pool's width —
	// asking for 64 workers on an 8-wide pool runs 8.
	pool := sched.Default()
	rowsPerMorsel := engine.MorselBlocks * column.DefaultBlockSize
	numMorsels := (n + rowsPerMorsel - 1) / rowsPerMorsel
	resolved := engine.Workers(pool, workers, n, engine.TaskMinRows)
	if resolved > numMorsels {
		resolved = numMorsels
	}
	cells := []struct {
		name string
		par  int
		got  int
	}{
		{"serial", 1, 1},
		{"parallel", workers, resolved},
	}
	enc := json.NewEncoder(os.Stdout)
	for _, cell := range cells {
		ex := engine.NewSilent(tb)
		ex.SetParallelism(cell.par)
		ex.SetScheduler(pool)
		selOp := func() error {
			_, err := ex.Select("a", pred, engine.ScanActive)
			return err
		}
		aggOp := func() error {
			_, err := ex.Aggregate("a", pred, engine.ScanActive)
			return err
		}
		// The chunk-stream cell drains the pipelined scan and records
		// the adaptive scheduler's effective stride, so the -scan JSON
		// makes adaptive morsel sizing observable across runs.
		stride := 0
		streamOp := func() error {
			st, err := ex.SelectChunkStream(context.Background(), "a", pred, engine.ScanActive)
			if err != nil {
				return err
			}
			for {
				_, ok, err := st.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
			stride = st.Stride()
			return nil
		}
		for _, b := range []struct {
			kind string
			op   func() error
		}{{"select", selOp}, {"aggregate", aggOp}, {"stream", streamOp}} {
			ns, allocs, err := measure(b.op)
			if err != nil {
				return err
			}
			res := scanResult{
				Bench:       fmt.Sprintf("%s_%s", cell.name, b.kind),
				Rows:        n,
				Workers:     cell.got,
				NsPerOp:     ns,
				RowsPerSec:  float64(n) / (ns / 1e9),
				AllocsPerOp: allocs,
			}
			if b.kind == "stream" {
				res.MorselBlocks = stride
			}
			if err := enc.Encode(res); err != nil {
				return err
			}
		}
	}
	return nil
}

// measure runs op until half a second has elapsed (at least 3 times)
// and reports mean ns/op and heap allocations/op.
func measure(op func() error) (nsPerOp, allocsPerOp float64, err error) {
	if err := op(); err != nil { // warm pools and caches
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for elapsed := time.Duration(0); iters < 3 || elapsed < 500*time.Millisecond; elapsed = time.Since(start) {
		if err := op(); err != nil {
			return 0, 0, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(iters)
	return nsPerOp, allocsPerOp, nil
}
