package report

import (
	"bytes"
	"image/png"
	"testing"

	"amnesiadb/experiments/internal/metrics"
	"amnesiadb/experiments/internal/sim"
)

func TestWriteSeriesPNG(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesPNG(&buf, []*metrics.Series{
		mkSeries("fifo", 1.0, 0.5, 0.1),
		mkSeries("area", 0.9, 0.8, 0.7),
	}, 320, 240)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != 320 || b.Dy() != 240 {
		t.Fatalf("dimensions = %dx%d", b.Dx(), b.Dy())
	}
	// Some pixels must be non-white (lines were drawn).
	colored := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bb, _ := img.At(x, y).RGBA()
			if r != 0xffff || g != 0xffff || bb != 0xffff {
				colored++
			}
		}
	}
	if colored < 500 {
		t.Fatalf("only %d non-white pixels; chart looks empty", colored)
	}
}

func TestWriteSeriesPNGDefaultsAndErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesPNG(&buf, nil, 0, 0); err == nil {
		t.Fatal("empty series accepted")
	}
	buf.Reset()
	if err := WriteSeriesPNG(&buf, []*metrics.Series{mkSeries("a", 0.5)}, 0, 0); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 640 || img.Bounds().Dy() != 480 {
		t.Fatalf("defaults = %v", img.Bounds())
	}
	buf.Reset()
	err = WriteSeriesPNG(&buf, []*metrics.Series{
		mkSeries("a", 0.5), mkSeries("b", 0.5, 0.4),
	}, 0, 0)
	if err == nil {
		t.Fatal("ragged series accepted")
	}
}

func TestWriteMapPNGShades(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMapPNG(&buf, []*sim.Result{
		mkResult("fifo", 0, 100),
	}, 200, 40)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Left half (batch 0, 0% active) must be dark, right half bright.
	r1, g1, _, _ := img.At(50, 20).RGBA()
	r2, g2, _, _ := img.At(150, 20).RGBA()
	if r1 != 0 || g1 != 0 {
		t.Fatalf("dead band not dark: %v %v", r1, g1)
	}
	if r2 != 0xffff || g2 != 0xffff {
		t.Fatalf("live band not bright: %v %v", r2, g2)
	}
	if err := WriteMapPNG(&buf, nil, 0, 0); err == nil {
		t.Fatal("empty map accepted")
	}
}
