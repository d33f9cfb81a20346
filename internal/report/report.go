// Package report renders experiment results as aligned ASCII tables and CSV
// streams — the textual equivalents of the paper's bar plots and scatter
// figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"github.com/pubsub-systems/mcss/internal/stats"
)

// Table is a simple column-aligned table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// WriteCSV emits the table as CSV (comma-separated, header first). Cells
// containing commas or quotes are quoted.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var b strings.Builder
	for i, h := range t.Headers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(h))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series is a named (x, y) sequence, e.g. one CCDF curve.
type Series struct {
	Name   string
	Points []stats.Point
}

// RenderSeries writes one or more series as a long-format table
// (series, x, y) — convenient for plotting tools.
func RenderSeries(w io.Writer, title string, series ...Series) error {
	t := NewTable(title, "series", "x", "y")
	for _, s := range series {
		for _, p := range s.Points {
			t.AddRow(s.Name, fmt.Sprintf("%g", p.X), fmt.Sprintf("%g", p.Y))
		}
	}
	return t.Render(w)
}

// SeriesCSV writes series in long CSV format.
func SeriesCSV(w io.Writer, series ...Series) error {
	t := NewTable("", "series", "x", "y")
	for _, s := range series {
		for _, p := range s.Points {
			t.AddRow(s.Name, fmt.Sprintf("%g", p.X), fmt.Sprintf("%g", p.Y))
		}
	}
	return t.WriteCSV(w)
}
