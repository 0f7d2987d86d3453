// Package plot renders the paper's figures without an external plotting
// stack: an ASCII renderer for terminal output and an SVG renderer for
// files. Both cover the three figure shapes the paper uses — log-log
// rank-frequency charts (Figs 3, 4), histograms (Fig 1) and boxplot
// panels (Fig 2).
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one labeled data series of (x, y) points.
type Series struct {
	Label string
	X, Y  []float64
}

// RankSeries builds a Series from a rank-frequency vector: x = 1..len(f),
// y = f.
func RankSeries(label string, freqs []float64) Series {
	s := Series{Label: label, X: make([]float64, len(freqs)), Y: append([]float64(nil), freqs...)}
	for i := range freqs {
		s.X[i] = float64(i + 1)
	}
	return s
}

// seriesMarkers are the glyphs assigned to successive series in ASCII
// charts.
var seriesMarkers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '=', '~'}

// ASCIIChart renders a multi-series scatter chart into a width×height
// character grid. With LogX/LogY set, the corresponding axis is log10-
// scaled (non-positive points are dropped).
type ASCIIChart struct {
	Title         string
	Width, Height int
	LogX, LogY    bool
	Series        []Series
}

// Render returns the chart as a multi-line string, including a title,
// y-axis bounds, x-axis bounds, and a legend.
func (c ASCIIChart) Render() string {
	w, h := c.Width, c.Height
	if w < 16 {
		w = 64
	}
	if h < 4 {
		h = 20
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	type pt struct {
		x, y   float64
		marker byte
	}
	var pts []pt
	for si, s := range c.Series {
		marker := seriesMarkers[si%len(seriesMarkers)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if c.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			if c.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			pts = append(pts, pt{x, y, marker})
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	if len(pts) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for _, p := range pts {
		col := int((p.x - minX) / (maxX - minX) * float64(w-1))
		row := int((p.y - minY) / (maxY - minY) * float64(h-1))
		grid[h-1-row][col] = p.marker
	}
	axisLabel := func(v float64, log bool) string {
		if log {
			return fmt.Sprintf("%.3g", math.Pow(10, v))
		}
		return fmt.Sprintf("%.3g", v)
	}
	top := axisLabel(maxY, c.LogY)
	bottom := axisLabel(minY, c.LogY)
	margin := len(top)
	if len(bottom) > margin {
		margin = len(bottom)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", margin)
		if i == 0 {
			label = fmt.Sprintf("%*s", margin, top)
		}
		if i == h-1 {
			label = fmt.Sprintf("%*s", margin, bottom)
		}
		b.WriteString(label)
		b.WriteString(" |")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", margin))
	b.WriteString(" +")
	b.WriteString(strings.Repeat("-", w))
	b.WriteByte('\n')
	b.WriteString(strings.Repeat(" ", margin+2))
	xlo := axisLabel(minX, c.LogX)
	xhi := axisLabel(maxX, c.LogX)
	pad := w - len(xlo) - len(xhi)
	if pad < 1 {
		pad = 1
	}
	b.WriteString(xlo + strings.Repeat(" ", pad) + xhi)
	b.WriteByte('\n')
	for si, s := range c.Series {
		fmt.Fprintf(&b, "  %c %s\n", seriesMarkers[si%len(seriesMarkers)], s.Label)
	}
	return b.String()
}

// BoxStats is the minimal five-number summary an ASCII/SVG boxplot needs.
type BoxStats struct {
	Label                         string
	WhiskLo, Q1, Med, Q3, WhiskHi float64
}

// ASCIIBoxplots renders one boxplot row per entry over a shared axis:
//
//	label |----[==|==]-----|
func ASCIIBoxplots(title string, boxes []BoxStats, width int) string {
	if width < 20 {
		width = 60
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	if len(boxes) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	maxLabel := 0
	for _, bx := range boxes {
		lo = math.Min(lo, bx.WhiskLo)
		hi = math.Max(hi, bx.WhiskHi)
		if len(bx.Label) > maxLabel {
			maxLabel = len(bx.Label)
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	col := func(v float64) int {
		c := int((v - lo) / (hi - lo) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c > width-1 {
			c = width - 1
		}
		return c
	}
	for _, bx := range boxes {
		row := []byte(strings.Repeat(" ", width))
		for i := col(bx.WhiskLo); i <= col(bx.WhiskHi); i++ {
			row[i] = '-'
		}
		for i := col(bx.Q1); i <= col(bx.Q3); i++ {
			row[i] = '='
		}
		row[col(bx.WhiskLo)] = '|'
		row[col(bx.WhiskHi)] = '|'
		row[col(bx.Q1)] = '['
		row[col(bx.Q3)] = ']'
		row[col(bx.Med)] = '#'
		fmt.Fprintf(&b, "%*s %s\n", maxLabel, bx.Label, row)
	}
	fmt.Fprintf(&b, "%*s %.3g%s%.3g\n", maxLabel, "", lo, strings.Repeat(" ", max(1, width-12)), hi)
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
