// Package report renders experiment output as CSV (for external plotting)
// and as ASCII charts (for terminal inspection): the per-batch precision
// lines of Figure 3 and the timeline heat maps of Figures 1-2.
package report

import (
	"fmt"
	"io"
	"strings"

	"amnesiadb/experiments/internal/metrics"
	"amnesiadb/experiments/internal/sim"
)

// WriteSeriesCSV emits one row per batch with a column per series, matching
// the layout of the paper's precision figures: batch, <name1>, <name2>, ...
func WriteSeriesCSV(w io.Writer, series []*metrics.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("report: no series to write")
	}
	head := make([]string, 0, len(series)+1)
	head = append(head, "batch")
	for _, s := range series {
		head = append(head, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(head, ",")); err != nil {
		return err
	}
	n := len(series[0].Points)
	for _, s := range series {
		if len(s.Points) != n {
			return fmt.Errorf("report: series %s has %d points, want %d", s.Name, len(s.Points), n)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%d", series[0].Points[i].Batch))
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.4f", s.Points[i].Precision))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteMapCSV emits the amnesia-map data of Figures 1-2: one row per
// timeline batch with the active percentage per run.
func WriteMapCSV(w io.Writer, results []*sim.Result) error {
	if len(results) == 0 {
		return fmt.Errorf("report: no results to write")
	}
	head := []string{"timeline"}
	for _, r := range results {
		head = append(head, r.Series.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(head, ",")); err != nil {
		return err
	}
	n := len(results[0].MapActive)
	for _, r := range results {
		if len(r.MapActive) != n {
			return fmt.Errorf("report: result %s has %d map points, want %d", r.Series.Name, len(r.MapActive), n)
		}
	}
	for b := 0; b < n; b++ {
		row := []string{fmt.Sprintf("%d", b)}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.1f", r.ActivePercent()[b]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// heatRunes maps an active percentage to a glyph, darkest = forgotten.
var heatRunes = []rune(" .:-=+*#%@")

func heatRune(pct float64) rune {
	idx := int(pct / 100 * float64(len(heatRunes)))
	if idx >= len(heatRunes) {
		idx = len(heatRunes) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return heatRunes[idx]
}

// WriteHeatMap renders the Figure 1/2 amnesia map as rows of glyphs: one
// row per run, one glyph per timeline batch, '@' fully active, ' ' fully
// forgotten.
func WriteHeatMap(w io.Writer, results []*sim.Result) error {
	if len(results) == 0 {
		return fmt.Errorf("report: no results to render")
	}
	width := 0
	for _, r := range results {
		if len(r.Series.Name) > width {
			width = len(r.Series.Name)
		}
	}
	for _, r := range results {
		var sb strings.Builder
		for _, p := range r.ActivePercent() {
			sb.WriteRune(heatRune(p))
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", width, r.Series.Name, sb.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  0%s%d (timeline batch)\n", width, "", strings.Repeat(" ", maxInt(len(results[0].MapActive)-2, 0)), len(results[0].MapActive)-1)
	return err
}

// WriteChart renders precision series as a height x width ASCII chart,
// y in [0, 1]. Each series gets its own marker glyph.
func WriteChart(w io.Writer, series []*metrics.Series, height int) error {
	if len(series) == 0 {
		return fmt.Errorf("report: no series to render")
	}
	if height < 2 {
		height = 10
	}
	markers := []byte{'f', 'u', 'a', 'r', 'A', 'p', 'd', 'q'}
	n := len(series[0].Points)
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", n*3))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for pi, p := range s.Points {
			row := int((1 - p.Precision) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][pi*3+1] = m
		}
	}
	for i, row := range grid {
		y := 1 - float64(i)/float64(height-1)
		if _, err := fmt.Fprintf(w, "%4.2f |%s\n", y, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "     +%s\n", strings.Repeat("-", n*3)); err != nil {
		return err
	}
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", markers[si%len(markers)], s.Name))
	}
	_, err := fmt.Fprintf(w, "      batches 1..%d   %s\n", n, strings.Join(legend, " "))
	return err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
