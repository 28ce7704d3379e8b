package exp

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"fig1", "fig2", "fig3a", "fig3b", "fig3x", "agg", "vol", "sel", "sweep"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing", want)
		}
	}
}

func TestLookup(t *testing.T) {
	e, err := Lookup("fig1")
	if err != nil || e.ID != "fig1" {
		t.Fatalf("Lookup fig1 = %+v, %v", e, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig1Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "fig1", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "timeline,fifo,uniform,ante,area") {
		t.Fatalf("fig1 header wrong:\n%s", firstLines(out, 2))
	}
	lines := strings.Split(out, "\n")
	// 11 timeline points (batch 0..10) follow the header.
	var first, last string
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "0,") {
			first = l
		}
		if strings.HasPrefix(l, "10,") {
			last = l
		}
	}
	// fifo column: batch 0 fully forgotten, batch 10 fully active.
	if !strings.HasPrefix(first, "0,0.0,") {
		t.Fatalf("fig1 fifo batch 0 not dark: %q", first)
	}
	if !strings.HasPrefix(last, "10,100.0,") {
		t.Fatalf("fig1 fifo batch 10 not bright: %q", last)
	}
}

func TestFig2CoversDistributions(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "fig2", &buf); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if head != "timeline,serial,uniform,normal,zipfian" {
		t.Fatalf("fig2 header = %q", head)
	}
}

func TestFig3HasAllStrategies(t *testing.T) {
	var buf bytes.Buffer
	if err := run(t, "fig3a", &buf); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if head != "batch,fifo,uniform,ante,rot,area" {
		t.Fatalf("fig3 header = %q", head)
	}
	if !strings.Contains(buf.String(), "batches 1..10") {
		t.Fatal("fig3 chart missing")
	}
}

func TestCompressRatiosTable(t *testing.T) {
	var buf bytes.Buffer
	if err := CompressRatios(t.Context(), &buf, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "distribution,rle,delta,for,auto") {
		t.Fatalf("compress table:\n%s", buf.String())
	}
	// Serial data must compress best with delta.
	if !strings.HasPrefix(lines[1], "serial,") || !strings.Contains(lines[1], "8.00x") {
		t.Fatalf("serial row = %q", lines[1])
	}
}

func TestDriftDistalignedWins(t *testing.T) {
	var buf bytes.Buffer
	if err := Drift(t.Context(), &buf, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := strings.Split(lines[len(lines)-1], ",")
	// columns: batch,fifo,uniform,ante,rot,area,pairwise,distaligned
	if len(last) != 8 {
		t.Fatalf("drift row = %v", last)
	}
	distaligned := parseF(t, last[7])
	for i := 1; i < 7; i++ {
		if parseF(t, last[i]) <= distaligned {
			t.Fatalf("distaligned drift %v not the lowest: col %d = %v", distaligned, i, last[i])
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(s, "%f", &v); err != nil {
		t.Fatalf("bad float %q", s)
	}
	return v
}

func TestRenderPNG(t *testing.T) {
	for _, id := range []string{"fig1", "fig3a"} {
		var buf bytes.Buffer
		if err := RenderPNG(t.Context(), &buf, id, 1); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() < 100 || !bytes.HasPrefix(buf.Bytes(), []byte("\x89PNG")) {
			t.Fatalf("%s: not a PNG (%d bytes)", id, buf.Len())
		}
	}
	if err := RenderPNG(t.Context(), &bytes.Buffer{}, "sel", 1); err == nil {
		t.Fatal("non-graphical experiment rendered")
	}
}

func TestSelectivityTable(t *testing.T) {
	var buf bytes.Buffer
	if err := Selectivity(t.Context(), &buf, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(PaperStrategies) {
		t.Fatalf("selectivity table has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "strategy,S=0.01") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestVolatilityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := Volatility(t.Context(), &buf, 1); err != nil {
		t.Fatal(err)
	}
	// Final batch: every 10% column must beat its 80% counterpart.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last string
	for _, l := range lines {
		if strings.HasPrefix(l, "10,") {
			last = l
			break
		}
	}
	if last == "" {
		t.Fatalf("no batch-10 row in:\n%s", buf.String())
	}
	cols := strings.Split(last, ",")
	// layout: batch, 5x low-volatility, 5x high-volatility
	for i := 1; i <= 5; i++ {
		low, high := parseF(t, cols[i]), parseF(t, cols[i+5])
		if low <= high {
			t.Fatalf("low-volatility %v not above high %v (col %d)", low, high, i)
		}
	}
}

// run renders experiment id at seed 1 into w.
func run(t *testing.T, id string, w io.Writer) error {
	e, err := Lookup(id)
	if err != nil {
		return err
	}
	return e.Run(t.Context(), w, 1)
}

func firstLines(s string, n int) string {
	parts := strings.SplitN(s, "\n", n+1)
	if len(parts) > n {
		parts = parts[:n]
	}
	return strings.Join(parts, "\n")
}
