package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The smoke pass runs every workload end to end on shrunken data, with
// verification on: once untraced for the end-to-end metrics, once
// traced for the per-layer ones.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke pass takes about half a minute")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/end_to_end"
			want := endToEndMetrics
			if traced {
				name, want = w.name+"/per_layer", perLayerMetrics
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := run(context.Background(), runConfig{w: &w, seed: 7, seconds: 1.5, trace: traced, smoke: true,
					tmpRoot: filepath.Join(dir, "tmp"), outDir: filepath.Join(dir, "out"), log: io.Discard})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if res.Checks == 0 {
					t.Error("verification checked no answer")
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s is missing", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s in %q, declared in %q", d.Name, m.Unit, d.Unit)
					}
				}
				if !traced {
					for _, d := range endToEndMetrics {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v; it must never be 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				if _, err := os.Stat(filepath.Join(dir, "out", w.name+".trace.json")); err != nil {
					t.Errorf("no trace written: %v", err)
				}
			})
		}
	}
}

// BENCHMARK.json is written by hand; it must declare exactly what the
// program reports.
func TestManifestMatchesProgram(t *testing.T) {
	man, err := readManifest("../../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", man.RunSeconds, defaultSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q, program %q (or their reasons differ)", i, man.Workloads[i].Name, w.name)
		}
	}
	if len(man.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(man.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		if man.EndToEnd[i].metricDef != d {
			t.Errorf("end_to_end[%d]: manifest %+v, program %+v", i, man.EndToEnd[i].metricDef, d)
		}
		if b := man.EndToEnd[i].Bound; b < minBound || b > maxBound {
			t.Errorf("%s: bound %v outside [%v, %v]", d.Name, b, minBound, maxBound)
		}
	}
	if len(man.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(man.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		if man.PerLayer[i] != d {
			t.Errorf("per_layer[%d]: manifest %+v, program %+v", i, man.PerLayer[i], d)
		}
	}
}
