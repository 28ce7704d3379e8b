package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

// boundedMetric is an end-to-end metric with the share of the parent's
// median by which it may get worse before a change is rejected.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

const manifestPath = "BENCHMARK.json"

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func (m *manifest) write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cell is one metric on one workload.
type cell struct{ workload, metric string }

// loadRuns reads every run record in dir and groups the values by cell.
// Traced and untraced records carry disjoint metric names, so they can
// share a directory.
func loadRuns(dir string) (map[cell][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[cell][]float64)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var res runResult
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if res.Workload == "" {
			continue // not a run record
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: the run failed verification; it cannot be compared", p)
		}
		for name, m := range res.Metrics {
			c := cell{res.Workload, name}
			out[c] = append(out[c], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no run records in %s", dir)
	}
	return out, nil
}

func sortedCells(m map[cell][]float64) []cell {
	cells := make([]cell, 0, len(m))
	for c := range m {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].workload != cells[j].workload {
			return cells[i].workload < cells[j].workload
		}
		return cells[i].metric < cells[j].metric
	})
	return cells
}

// verdict judges candidate b against baseline a for one bounded metric.
// worse: b's median is worse than a's by more than the bound. Otherwise
// unresolved when either side's interquartile spread is wider than the
// bound — the runs cannot show the metric unchanged — and within when
// they can.
func verdict(a, b []float64, better string, bound float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	change := (mb - ma) / math.Abs(ma)
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case iqrSpread(a) > bound || iqrSpread(b) > bound:
		return "unresolved"
	default:
		return "within"
	}
}

// compareDirs prints, per cell, both sides' medians and quartiles and a
// verdict, and reports whether any cell came out worse.
func compareDirs(w io.Writer, dirA, dirB string) (anyWorse bool, err error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	type rule struct {
		better string
		bound  float64
	}
	rules := make(map[string]rule)
	for _, m := range man.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-38s %12s %12s %12s | %12s %12s %12s | %8s %6s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "bound", "verdict")
	for _, c := range sortedCells(a) {
		vb, ok := b[c]
		if !ok {
			continue
		}
		va := a[c]
		a1, a2, a3 := quartiles(va)
		b1, b2, b3 := quartiles(vb)
		change := math.NaN()
		if a2 != 0 {
			change = (b2 - a2) / math.Abs(a2)
		}
		v, bound := "-", "-"
		if r, ok := rules[c.metric]; ok {
			v = verdict(va, vb, r.better, r.bound)
			bound = fmt.Sprintf("%.2f", r.bound)
			anyWorse = anyWorse || v == "worse"
		}
		fmt.Fprintf(w, "%-14s %-38s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %+7.1f%% %6s  %s\n",
			c.workload, c.metric, a1, a2, a3, b1, b2, b3, 100*change, bound, v)
	}
	return anyWorse, nil
}

// maxBound is the widest regression bound the acceptance driver takes,
// minBound the narrowest this benchmark claims.
const (
	maxBound = 0.25
	minBound = 0.05
)

// boundFor derives a metric's bound from its widest interquartile
// spread over the workloads: three times the spread, so that a run of
// the acceptance check (spread within the bound, set medians within
// the bound of each other) has a margin of two thirds, rounded up to
// 0.01, never below minBound and never above maxBound, which is all
// the driver takes. A metric that the cap leaves with a smaller margin
// is reported as tight by calibrateSuite and listed in ../README.md.
func boundFor(widestSpread float64) float64 {
	return min(maxBound, max(minBound, math.Ceil(3*widestSpread*100-1e-9)/100))
}

// calibrateSuite runs every workload n times, each run a fresh process
// with its own seed, and writes the records under the first of dirs (a
// record already there is kept, not run again). It then prints every
// cell's spread within each of dirs — sets of runs taken at different
// times — and writes each metric's bound (see boundFor) into
// BENCHMARK.json: the acceptance check looks at one set's spread at a
// time, so the widest spread any set shows is the one that counts.
func calibrateSuite(n int, seed uint64, seconds float64, dirs []string, tmp string) error {
	man, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dirs[0], 0o755); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			rec := filepath.Join(dirs[0], fmt.Sprintf("%s.%02d.json", w.name, i+1))
			if _, err := os.Stat(rec); err == nil {
				continue // an interrupted calibration resumes where it stopped
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+uint64(i)),
				"-seconds", fmt.Sprint(seconds), "-tmp", tmp, "-record", rec)
			cmd.Stderr = os.Stderr
			if out, err := cmd.Output(); err != nil {
				os.Stdout.Write(out)
				return fmt.Errorf("%s run %d: %w", w.name, i+1, err)
			}
			fmt.Printf("calibrate: %s run %d/%d done\n", w.name, i+1, n)
		}
	}
	widest := make(map[string]float64)
	for _, dir := range dirs {
		runs, err := loadRuns(dir)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n%-14s %-16s %4s %12s %10s %10s\n", dir, "workload", "metric", "runs", "median", "iqr/med", "range/med")
		for _, c := range sortedCells(runs) {
			v := append([]float64(nil), runs[c]...)
			sort.Float64s(v)
			med := percentile(v, 0.5)
			iqr := iqrSpread(v)
			fmt.Printf("%-14s %-16s %4d %12.4f %9.1f%% %9.1f%%\n", c.workload, c.metric, len(v), med, 100*iqr, 100*(v[len(v)-1]-v[0])/math.Abs(med))
			widest[c.metric] = max(widest[c.metric], iqr)
		}
	}
	fmt.Printf("%-16s %12s %8s %8s\n", "metric", "widest iqr", "bound", "margin")
	for i := range man.EndToEnd {
		m := &man.EndToEnd[i]
		m.Bound = boundFor(widest[m.Name])
		note := ""
		if m.Bound < 3*widest[m.Name] {
			note = "  tight: the driver takes no bound above " + fmt.Sprint(maxBound)
		}
		fmt.Printf("%-16s %11.1f%% %8.2f %7.1fx%s\n", m.Name, 100*widest[m.Name], m.Bound, m.Bound/widest[m.Name], note)
	}
	return man.write(manifestPath)
}
