package plot

import (
	"bytes"
	"strings"
	"testing"
)

func TestRankSeries(t *testing.T) {
	s := RankSeries("x", []float64{0.5, 0.3, 0.1})
	if len(s.X) != 3 || s.X[0] != 1 || s.X[2] != 3 {
		t.Fatalf("X = %v", s.X)
	}
	if s.Y[1] != 0.3 {
		t.Fatalf("Y = %v", s.Y)
	}
}

func TestASCIIChartBasic(t *testing.T) {
	c := ASCIIChart{
		Title:  "test chart",
		Width:  40,
		Height: 10,
		Series: []Series{
			{Label: "a", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}},
			{Label: "b", X: []float64{1, 2, 3}, Y: []float64{3, 2, 1}},
		},
	}
	out := c.Render()
	if !strings.Contains(out, "test chart") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("series markers missing")
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatal("legend missing")
	}
}

func TestASCIIChartLogAxes(t *testing.T) {
	c := ASCIIChart{
		Width: 40, Height: 8, LogX: true, LogY: true,
		Series: []Series{{Label: "pl", X: []float64{1, 10, 100, 0}, Y: []float64{1, 0.1, 0.01, -5}}},
	}
	out := c.Render()
	// Non-positive points dropped; rendering must not panic and axis
	// labels must be back-transformed into data space.
	if !strings.Contains(out, "100") {
		t.Fatalf("log x-axis label missing:\n%s", out)
	}
}

func TestASCIIChartEmpty(t *testing.T) {
	out := ASCIIChart{Width: 20, Height: 5}.Render()
	if !strings.Contains(out, "no data") {
		t.Fatal("empty chart must say so")
	}
}

func TestASCIIChartConstantData(t *testing.T) {
	c := ASCIIChart{
		Width: 20, Height: 5,
		Series: []Series{{Label: "c", X: []float64{1, 1}, Y: []float64{2, 2}}},
	}
	if out := c.Render(); out == "" {
		t.Fatal("constant data must render")
	}
}

func TestASCIIBoxplots(t *testing.T) {
	boxes := []BoxStats{
		{Label: "A", WhiskLo: 0, Q1: 1, Med: 2, Q3: 3, WhiskHi: 4},
		{Label: "B", WhiskLo: 2, Q1: 3, Med: 4, Q3: 5, WhiskHi: 6},
	}
	out := ASCIIBoxplots("boxes", boxes, 40)
	if !strings.Contains(out, "[") || !strings.Contains(out, "]") || !strings.Contains(out, "#") {
		t.Fatalf("boxplot glyphs missing:\n%s", out)
	}
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Fatal("labels missing")
	}
}

func TestASCIIBoxplotsEmpty(t *testing.T) {
	if out := ASCIIBoxplots("t", nil, 40); !strings.Contains(out, "no data") {
		t.Fatal("empty boxplots must say so")
	}
}

func TestSVGChart(t *testing.T) {
	c := SVGChart{
		Title: "fig", XLabel: "Rank", YLabel: "Frequency",
		LogX: true, LogY: true, Lines: true,
		Series: []Series{
			RankSeries("ITA", []float64{0.5, 0.25, 0.1}),
			RankSeries("JPN", []float64{0.6, 0.2}),
		},
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	for _, want := range []string{"<svg", "</svg>", "fig", "ITA", "JPN", "Rank", "Frequency", "<path"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
}

func TestSVGChartScatterMode(t *testing.T) {
	c := SVGChart{Series: []Series{{Label: "pts", X: []float64{1, 2}, Y: []float64{3, 4}}}}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<circle") {
		t.Fatal("scatter mode must emit circles")
	}
}

func TestSVGChartEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := (SVGChart{}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty SVG chart must note missing data")
	}
}

func TestSVGChartEscapesLabels(t *testing.T) {
	c := SVGChart{Title: `a<b>&"c"`, Series: []Series{{Label: "x<y", X: []float64{1}, Y: []float64{1}}}}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if strings.Contains(svg, "a<b>") || strings.Contains(svg, "x<y") {
		t.Fatal("labels not escaped")
	}
	if !strings.Contains(svg, "a&lt;b&gt;") {
		t.Fatal("escaped title missing")
	}
}

func TestSVGBoxplots(t *testing.T) {
	p := SVGBoxplots{
		Title: "Fig 2",
		Boxes: []BoxStats{
			{Label: "Spice", WhiskLo: 0, Q1: 1, Med: 2, Q3: 3, WhiskHi: 5},
		},
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	for _, want := range []string{"<svg", "Fig 2", "Spice", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG boxplot missing %q", want)
		}
	}
}

func TestSVGBoxplotsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := (SVGBoxplots{}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty boxplot panel must note missing data")
	}
}

func TestSVGBoxplotsDegenerate(t *testing.T) {
	p := SVGBoxplots{Boxes: []BoxStats{{Label: "flat", WhiskLo: 2, Q1: 2, Med: 2, Q3: 2, WhiskHi: 2}}}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
}
