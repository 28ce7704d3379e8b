package report

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"

	"amnesiadb/experiments/internal/metrics"
	"amnesiadb/experiments/internal/sim"
)

// palette gives each figure line a distinct colour, in legend order
// matching the paper's five-strategy figures.
var palette = []color.RGBA{
	{R: 0xd6, G: 0x27, B: 0x28, A: 0xff}, // red
	{R: 0x1f, G: 0x77, B: 0xb4, A: 0xff}, // blue
	{R: 0x2c, G: 0xa0, B: 0x2c, A: 0xff}, // green
	{R: 0xff, G: 0x7f, B: 0x0e, A: 0xff}, // orange
	{R: 0x94, G: 0x67, B: 0xbd, A: 0xff}, // purple
	{R: 0x8c, G: 0x56, B: 0x4b, A: 0xff}, // brown
	{R: 0xe3, G: 0x77, B: 0xc2, A: 0xff}, // pink
	{R: 0x7f, G: 0x7f, B: 0x7f, A: 0xff}, // grey
}

// WriteSeriesPNG renders precision series as a line chart (y in [0, 1])
// and writes it as a PNG. Dimensions default to 640x480 when zero.
func WriteSeriesPNG(w io.Writer, series []*metrics.Series, width, height int) error {
	if len(series) == 0 {
		return fmt.Errorf("report: no series to render")
	}
	if width <= 0 {
		width = 640
	}
	if height <= 0 {
		height = 480
	}
	const margin = 32
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	fill(img, color.White)
	plotW, plotH := width-2*margin, height-2*margin

	// Axes.
	for x := 0; x <= plotW; x++ {
		img.Set(margin+x, height-margin, color.Black)
	}
	for y := 0; y <= plotH; y++ {
		img.Set(margin, margin+y, color.Black)
	}
	// Gridlines at 0.25/0.5/0.75.
	grid := color.RGBA{R: 0xdd, G: 0xdd, B: 0xdd, A: 0xff}
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		y := margin + int((1-frac)*float64(plotH))
		for x := 1; x <= plotW; x++ {
			img.Set(margin+x, y, grid)
		}
	}

	n := len(series[0].Points)
	for si, s := range series {
		if len(s.Points) != n {
			return fmt.Errorf("report: series %s has %d points, want %d", s.Name, len(s.Points), n)
		}
		col := palette[si%len(palette)]
		var px, py int
		for i, p := range s.Points {
			x := margin
			if n > 1 {
				x += i * plotW / (n - 1)
			}
			y := margin + int((1-clamp01(p.Precision))*float64(plotH))
			if i > 0 {
				line(img, px, py, x, y, col)
			}
			dot(img, x, y, col)
			px, py = x, y
		}
	}
	return png.Encode(w, img)
}

// WriteMapPNG renders the Figure 1/2 amnesia map as a heat map: one row
// band per run, one column per timeline batch; brightness = active
// percentage (the paper's "the brighter the colored area is, the more
// tuples are still accessible").
func WriteMapPNG(w io.Writer, results []*sim.Result, width, bandHeight int) error {
	if len(results) == 0 {
		return fmt.Errorf("report: no results to render")
	}
	if width <= 0 {
		width = 640
	}
	if bandHeight <= 0 {
		bandHeight = 48
	}
	const gap = 4
	n := len(results[0].MapActive)
	height := len(results)*(bandHeight+gap) - gap
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	fill(img, color.White)
	for ri, r := range results {
		if len(r.MapActive) != n {
			return fmt.Errorf("report: result %s has %d map points, want %d", r.Series.Name, len(r.MapActive), n)
		}
		pct := r.ActivePercent()
		y0 := ri * (bandHeight + gap)
		for b := 0; b < n; b++ {
			shade := uint8(255 * pct[b] / 100)
			c := color.RGBA{R: shade, G: shade, B: 0, A: 0xff} // dark -> bright yellow
			x0 := b * width / n
			x1 := (b + 1) * width / n
			for y := y0; y < y0+bandHeight; y++ {
				for x := x0; x < x1; x++ {
					img.Set(x, y, c)
				}
			}
		}
	}
	return png.Encode(w, img)
}

func fill(img *image.RGBA, c color.Color) {
	b := img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			img.Set(x, y, c)
		}
	}
}

// line draws with the integer Bresenham algorithm.
func line(img *image.RGBA, x0, y0, x1, y1 int, c color.Color) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		img.Set(x0, y0, c)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func dot(img *image.RGBA, x, y int, c color.Color) {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			img.Set(x+dx, y+dy, c)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
