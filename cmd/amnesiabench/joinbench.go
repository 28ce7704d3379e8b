package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"amnesiadb/internal/engine"
	"amnesiadb/internal/partition"
	"amnesiadb/internal/table"
	"amnesiadb/internal/xrand"
)

// runJoinBench measures the hash join — parallel collect, radix build,
// morsel probe — over an n-row probe side and an n/8 build side sharing
// one key domain, once serial and once morsel-parallel, printing one
// JSON line per cell. Rows/sec counts tuples entering the join (both
// sides), the throughput the parallel build/probe is meant to scale.
func runJoinBench(n, workers int) error {
	src := xrand.New(1)
	mk := func(name string, rows int) (*table.Table, error) {
		tb := table.New(name, "k")
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = src.Int63n(1 << 20)
		}
		if _, err := tb.AppendSingleColumn(vals); err != nil {
			return nil, err
		}
		return tb, nil
	}
	probe, err := mk("probe", n)
	if err != nil {
		return err
	}
	build, err := mk("build", n/8)
	if err != nil {
		return err
	}
	for i := 0; i < n; i += 2 {
		probe.Forget(i)
	}
	total := n + n/8
	// The probe fans out over qualifying rows (half the probe side is
	// forgotten), so the reported worker count is clamped to the probe
	// morsels actually available, like -scan clamps to column morsels.
	probeMorsels := (n/2 + engine.ProbeMorselRows - 1) / engine.ProbeMorselRows
	enc := json.NewEncoder(os.Stdout)
	for _, cell := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", workers}} {
		op := func() error {
			res, err := engine.HashJoin(context.Background(), nil, probe, "k", build, "k", nil, engine.ScanActive, cell.par)
			if err != nil {
				return err
			}
			if res.Count() == 0 {
				return fmt.Errorf("joinbench: empty join")
			}
			return nil
		}
		ns, allocs, err := measure(op)
		if err != nil {
			return err
		}
		w := engine.Workers(nil, cell.par, total, engine.TaskMinRows)
		if w > probeMorsels {
			w = probeMorsels
		}
		if err := enc.Encode(scanResult{
			Bench:       cell.name + "_join",
			Rows:        total,
			Workers:     w,
			NsPerOp:     ns,
			RowsPerSec:  float64(total) / (ns / 1e9),
			AllocsPerOp: allocs,
		}); err != nil {
			return err
		}
	}
	return nil
}

// partScanShards is the shard count for -partscan: enough that the
// fan-out has real concurrency to exploit, few enough that every shard
// still holds a meaningful slice of the n rows.
const partScanShards = 16

// runPartScanBench measures the partitioned fan-out: n rows spread over
// partScanShards value-range shards, full-domain selects once with a
// serial fan-out and once concurrent, one JSON line per cell.
func runPartScanBench(n, workers int) error {
	const domain = 1 << 20
	build := func(par int) (*partition.Set, error) {
		s, err := partition.New("a", domain, partScanShards, "uniform", n, xrand.New(1))
		if err != nil {
			return nil, err
		}
		s.SetParallelism(par)
		src := xrand.New(2)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = src.Int63n(domain)
		}
		if err := s.Insert(vals); err != nil {
			return nil, err
		}
		return s, nil
	}
	enc := json.NewEncoder(os.Stdout)
	for _, cell := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", workers}} {
		s, err := build(cell.par)
		if err != nil {
			return err
		}
		op := func() error {
			got, err := s.Select(0, domain)
			if err != nil {
				return err
			}
			if len(got) == 0 {
				return fmt.Errorf("partscan: empty select")
			}
			return nil
		}
		ns, allocs, err := measure(op)
		if err != nil {
			return err
		}
		if err := enc.Encode(scanResult{
			Bench:       cell.name + "_partscan",
			Rows:        n,
			Workers:     s.FanWorkers(partScanShards),
			NsPerOp:     ns,
			RowsPerSec:  float64(n) / (ns / 1e9),
			AllocsPerOp: allocs,
		}); err != nil {
			return err
		}
	}
	return nil
}
