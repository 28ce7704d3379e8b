package report

import (
	"bytes"
	"strings"
	"testing"

	"amnesiadb/experiments/internal/metrics"
	"amnesiadb/experiments/internal/sim"
)

func mkSeries(name string, ps ...float64) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, p := range ps {
		s.Points = append(s.Points, metrics.Point{Batch: i + 1, Precision: p, ErrorMargin: p})
	}
	return s
}

func mkResult(name string, pct ...float64) *sim.Result {
	r := &sim.Result{Series: metrics.Series{Name: name}}
	for _, p := range pct {
		r.MapTotal = append(r.MapTotal, 100)
		r.MapActive = append(r.MapActive, int(p))
	}
	return r
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, []*metrics.Series{
		mkSeries("fifo", 1.0, 0.5),
		mkSeries("area", 0.9, 0.8),
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "batch,fifo,area" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,1.0000,0.9000" || lines[2] != "2,0.5000,0.8000" {
		t.Fatalf("rows = %v", lines[1:])
	}
}

func TestWriteSeriesCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, nil); err == nil {
		t.Fatal("empty series accepted")
	}
	err := WriteSeriesCSV(&buf, []*metrics.Series{
		mkSeries("a", 1.0),
		mkSeries("b", 1.0, 0.9),
	})
	if err == nil {
		t.Fatal("ragged series accepted")
	}
}

func TestWriteMapCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMapCSV(&buf, []*sim.Result{
		mkResult("fifo", 0, 100),
		mkResult("uniform", 50, 75),
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "timeline,fifo,uniform" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,0.0,50.0" || lines[2] != "1,100.0,75.0" {
		t.Fatalf("rows = %v", lines[1:])
	}
}

func TestHeatRuneBounds(t *testing.T) {
	if heatRune(0) != ' ' {
		t.Fatalf("heatRune(0) = %q", heatRune(0))
	}
	if heatRune(100) != '@' {
		t.Fatalf("heatRune(100) = %q", heatRune(100))
	}
	if heatRune(150) != '@' || heatRune(-5) != ' ' {
		t.Fatal("heatRune does not clamp")
	}
}

func TestWriteHeatMap(t *testing.T) {
	var buf bytes.Buffer
	err := WriteHeatMap(&buf, []*sim.Result{
		mkResult("fifo", 0, 0, 100),
		mkResult("uniform", 40, 60, 80),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fifo") || !strings.Contains(out, "uniform") {
		t.Fatalf("missing labels:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.Contains(lines[0], "|  @|") {
		t.Fatalf("fifo row = %q", lines[0])
	}
}

func TestWriteChart(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChart(&buf, []*metrics.Series{
		mkSeries("fifo", 1.0, 0.5, 0.0),
		mkSeries("area", 0.7, 0.65, 0.6),
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "f=fifo") || !strings.Contains(out, "u=area") {
		t.Fatalf("legend missing:\n%s", out)
	}
	// fifo precision 1.0 must land on the top row, 0.0 on the bottom.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[0], "f") {
		t.Fatalf("top row missing full-precision marker:\n%s", out)
	}
	if !strings.Contains(lines[4], "f") {
		t.Fatalf("bottom row missing zero-precision marker:\n%s", out)
	}
}

func TestWriteChartEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChart(&buf, nil, 5); err == nil {
		t.Fatal("empty chart accepted")
	}
	if err := WriteHeatMap(&buf, nil); err == nil {
		t.Fatal("empty heat map accepted")
	}
}
