// Package plot renders the reproduction's figures as ASCII line charts and
// aligned tables, and emits CSV for external plotting. It keeps the module
// free of graphics dependencies while still letting a terminal user see the
// shape of Figs 3 and 4.
package plot

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Errors returned by this package.
var (
	ErrNoData = errors.New("plot: no data")
	ErrShape  = errors.New("plot: series length mismatch")
)

// Series is one named curve sampled at shared X positions.
type Series struct {
	Name string
	Y    []float64
}

// Chart is a multi-series ASCII line chart over a shared X axis.
type Chart struct {
	// Title is printed above the chart.
	Title string
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// X holds the shared x positions (ascending).
	X []float64
	// Series holds the curves.
	Series []Series
	// Width and Height are the plot area size in characters; zero values
	// default to 72x20.
	Width, Height int
}

// seriesMarks assigns one glyph per series, cycling if necessary.
var seriesMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws the chart to w.
func (c Chart) Render(w io.Writer) error {
	if len(c.X) == 0 || len(c.Series) == 0 {
		return ErrNoData
	}
	for _, s := range c.Series {
		if len(s.Y) != len(c.X) {
			return fmt.Errorf("%w: series %q has %d points, x has %d", ErrShape, s.Name, len(s.Y), len(c.X))
		}
	}
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 20
	}

	xmin, xmax := c.X[0], c.X[len(c.X)-1]
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, y := range s.Y {
			if math.IsNaN(y) {
				continue
			}
			ymin = math.Min(ymin, y)
			ymax = math.Max(ymax, y)
		}
	}
	if math.IsInf(ymin, 1) {
		return ErrNoData
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		mark := seriesMarks[si%len(seriesMarks)]
		for i, y := range s.Y {
			if math.IsNaN(y) {
				continue
			}
			col := int(math.Round((c.X[i] - xmin) / (xmax - xmin) * float64(width-1)))
			row := height - 1 - int(math.Round((y-ymin)/(ymax-ymin)*float64(height-1)))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, "%s\n", c.YLabel)
	}
	for r, line := range grid {
		var label string
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3f", ymax)
		case height - 1:
			label = fmt.Sprintf("%8.3f", ymin)
		default:
			label = strings.Repeat(" ", 8)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(line))
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*.3f%*.3f\n", strings.Repeat(" ", 8), width/2, xmin, width-width/2, xmax)
	if c.XLabel != "" {
		fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", 8), c.XLabel)
	}
	legend := make([]string, 0, len(c.Series))
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c %s", seriesMarks[si%len(seriesMarks)], s.Name))
	}
	fmt.Fprintf(&b, "%s  legend: %s\n", strings.Repeat(" ", 8), strings.Join(legend, "   "))
	_, err := io.WriteString(w, b.String())
	return err
}

// TableRenderer is the common interface of the two table flavours: the
// string-celled Table and the numeric streaming ColumnTable. Both render an
// aligned text table and a CSV twin of the same values.
type TableRenderer interface {
	Render(w io.Writer) error
	WriteCSV(w io.Writer) error
}

// Table renders rows of labeled numeric columns with aligned headers — the
// textual twin of each figure, listing the exact values.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of preformatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNumericRow appends a row formatting every float with 4 decimals after
// an initial label column.
func (t *Table) AddNumericRow(label string, values ...float64) {
	cells := make([]string, 0, 1+len(values))
	cells = append(cells, label)
	for _, v := range values {
		cells = append(cells, strconv.FormatFloat(v, 'f', 4, 64))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the aligned table to w.
func (t Table) Render(w io.Writer) error {
	if len(t.Headers) == 0 {
		return ErrNoData
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := range t.Headers {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV emits the table as CSV: the header row followed by every data
// row, cells escaped as needed.
func (t Table) WriteCSV(w io.Writer) error {
	if len(t.Headers) == 0 {
		return ErrNoData
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.Headers {
			if i > 0 {
				b.WriteByte(',')
			}
			if i < len(cells) {
				b.WriteString(csvEscape(cells[i]))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Col describes one ColumnTable column: its header and the fixed decimal
// precision its text rendering uses (negative selects the shortest
// round-trip form; CSV output always uses that form regardless).
type Col struct {
	Name string
	Prec int
}

// ColumnTable is the streaming twin of Table for purely numeric figures.
// Producers append raw float rows as a sweep streams by — no per-cell
// fmt.Sprintf on the accumulation path — and every cell is formatted in a
// single strconv pass when the table is rendered or flushed to CSV. This is
// what moved the figure experiments from formatting-bound to math-bound.
type ColumnTable struct {
	Title string
	Cols  []Col
	cells []float64 // row-major accumulation
}

// NewColumnTable builds an empty table with the given columns.
func NewColumnTable(title string, cols ...Col) *ColumnTable {
	return &ColumnTable{Title: title, Cols: cols}
}

// Append adds one row of raw values. It panics on an arity mismatch — a
// programmer error, like a malformed format string.
func (t *ColumnTable) Append(row ...float64) {
	if len(row) != len(t.Cols) {
		panic(fmt.Sprintf("plot: ColumnTable row has %d cells, table has %d columns", len(row), len(t.Cols)))
	}
	t.cells = append(t.cells, row...)
}

// format writes every cell once into a shared arena using each column's
// precision and returns per-cell spans — the single formatting pass both
// Render and WriteCSV are built on.
func (t *ColumnTable) format(csv bool) (arena []byte, spans [][2]int) {
	spans = make([][2]int, len(t.cells))
	arena = make([]byte, 0, 12*len(t.cells))
	nc := len(t.Cols)
	for i, v := range t.cells {
		start := len(arena)
		prec := t.Cols[i%nc].Prec
		if csv || prec < 0 {
			arena = strconv.AppendFloat(arena, v, 'g', -1, 64)
		} else {
			arena = strconv.AppendFloat(arena, v, 'f', prec, 64)
		}
		spans[i] = [2]int{start, len(arena)}
	}
	return arena, spans
}

// Render writes the aligned text table to w.
func (t *ColumnTable) Render(w io.Writer) error {
	if len(t.Cols) == 0 {
		return ErrNoData
	}
	arena, spans := t.format(false)
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c.Name)
	}
	for i, sp := range spans {
		if l := sp[1] - sp[0]; l > widths[i%len(t.Cols)] {
			widths[i%len(t.Cols)] = l
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	pad := func(n int) {
		for ; n > 0; n-- {
			b.WriteByte(' ')
		}
	}
	for i, c := range t.Cols {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(c.Name)
		pad(widths[i] - len(c.Name))
	}
	b.WriteByte('\n')
	for i := range t.Cols {
		if i > 0 {
			b.WriteString("  ")
		}
		for n := widths[i]; n > 0; n-- {
			b.WriteByte('-')
		}
	}
	b.WriteByte('\n')
	nc := len(t.Cols)
	for i, sp := range spans {
		col := i % nc
		if col > 0 {
			b.WriteString("  ")
		}
		cell := arena[sp[0]:sp[1]]
		b.Write(cell)
		if col == nc-1 {
			b.WriteByte('\n')
		} else {
			pad(widths[col] - len(cell))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV emits the accumulated columns as CSV in full (round-trip)
// precision.
func (t *ColumnTable) WriteCSV(w io.Writer) error {
	if len(t.Cols) == 0 {
		return ErrNoData
	}
	arena, spans := t.format(true)
	var b strings.Builder
	for i, c := range t.Cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvEscape(c.Name))
	}
	b.WriteByte('\n')
	nc := len(t.Cols)
	for i, sp := range spans {
		if col := i % nc; col > 0 {
			b.WriteByte(',')
		}
		b.Write(arena[sp[0]:sp[1]])
		if i%nc == nc-1 {
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV emits the chart data as CSV: x column followed by one column per
// series.
func (c Chart) WriteCSV(w io.Writer) error {
	if len(c.X) == 0 || len(c.Series) == 0 {
		return ErrNoData
	}
	for _, s := range c.Series {
		if len(s.Y) != len(c.X) {
			return fmt.Errorf("%w: series %q", ErrShape, s.Name)
		}
	}
	var b strings.Builder
	b.WriteString("x")
	for _, s := range c.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for i, x := range c.X {
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		for _, s := range c.Series {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(s.Y[i], 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// RegionPlot renders one or more rate-region frontiers (as (Ra, Rb) vertex
// sequences) on a shared scatter grid — the ASCII twin of Fig 4.
type RegionPlot struct {
	Title  string
	Curves []RegionCurve
	Width  int
	Height int
}

// RegionCurve is one region frontier to draw.
type RegionCurve struct {
	Name   string
	Points []struct{ Ra, Rb float64 }
}

// CurveFromPairs converts coordinate pairs into a RegionCurve.
func CurveFromPairs(name string, ra, rb []float64) (RegionCurve, error) {
	if len(ra) != len(rb) {
		return RegionCurve{}, fmt.Errorf("%w: %d vs %d", ErrShape, len(ra), len(rb))
	}
	c := RegionCurve{Name: name}
	c.Points = make([]struct{ Ra, Rb float64 }, len(ra))
	for i := range ra {
		c.Points[i] = struct{ Ra, Rb float64 }{ra[i], rb[i]}
	}
	return c, nil
}

// Render draws the region scatter to w.
func (rp RegionPlot) Render(w io.Writer) error {
	if len(rp.Curves) == 0 {
		return ErrNoData
	}
	width, height := rp.Width, rp.Height
	if width <= 0 {
		width = 60
	}
	if height <= 0 {
		height = 24
	}
	var maxRa, maxRb float64
	for _, c := range rp.Curves {
		for _, p := range c.Points {
			maxRa = math.Max(maxRa, p.Ra)
			maxRb = math.Max(maxRb, p.Rb)
		}
	}
	if maxRa == 0 {
		maxRa = 1
	}
	if maxRb == 0 {
		maxRb = 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for ci, c := range rp.Curves {
		mark := seriesMarks[ci%len(seriesMarks)]
		// Draw interpolated segments between consecutive frontier points so
		// the region boundary reads as a curve.
		pts := c.Points
		sort.Slice(pts, func(i, j int) bool { return pts[i].Ra < pts[j].Ra })
		for i := 0; i < len(pts); i++ {
			plotAt(grid, pts[i].Ra/maxRa, pts[i].Rb/maxRb, mark, width, height)
			if i+1 < len(pts) {
				const interp = 12
				for k := 1; k < interp; k++ {
					t := float64(k) / interp
					ra := pts[i].Ra + t*(pts[i+1].Ra-pts[i].Ra)
					rb := pts[i].Rb + t*(pts[i+1].Rb-pts[i].Rb)
					plotAt(grid, ra/maxRa, rb/maxRb, mark, width, height)
				}
			}
		}
	}
	var b strings.Builder
	if rp.Title != "" {
		fmt.Fprintf(&b, "%s\n", rp.Title)
	}
	fmt.Fprintf(&b, "Rb (max %.3f)\n", maxRb)
	for _, line := range grid {
		fmt.Fprintf(&b, " |%s|\n", string(line))
	}
	fmt.Fprintf(&b, " +%s+ Ra (max %.3f)\n", strings.Repeat("-", width), maxRa)
	legend := make([]string, 0, len(rp.Curves))
	for ci, c := range rp.Curves {
		legend = append(legend, fmt.Sprintf("%c %s", seriesMarks[ci%len(seriesMarks)], c.Name))
	}
	fmt.Fprintf(&b, " legend: %s\n", strings.Join(legend, "   "))
	_, err := io.WriteString(w, b.String())
	return err
}

func plotAt(grid [][]byte, xFrac, yFrac float64, mark byte, width, height int) {
	col := int(math.Round(xFrac * float64(width-1)))
	row := height - 1 - int(math.Round(yFrac*float64(height-1)))
	if col >= 0 && col < width && row >= 0 && row < height {
		grid[row][col] = mark
	}
}
