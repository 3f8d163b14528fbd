package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// Gbps converts bytes moved in a duration to gigabits per second.
func Gbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e9
}

// Table renders experiment output with aligned columns, matching the
// "rows the paper reports" requirement of the harness. It absorbed the
// old internal/metrics renderer so benches and the running-cluster
// telemetry share one package.
type Table struct {
	Title   string
	Headers []string
	// Footer, when non-empty, is printed verbatim after the rows — used
	// by benches to attach e.g. a slowest-op critical-path breakdown.
	Footer string
	rows   [][]cell
}

// cell is one table entry: the text it renders as and, when AddRow was
// handed a number, the number itself — so whoever reads a measurement back
// out of a table (shape tests, JSON reports) never parses rendered text.
type cell struct {
	text    string
	value   float64
	unit    string // "ns" for durations, "%" for Percent, else ""
	numeric bool
}

// Percent is a ratio that renders as a percentage ("12.5%"); its typed
// value is the percentage, unit "%".
type Percent float64

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Floats render with two decimals, durations with an
// adaptive unit, everything else with %v; numbers keep their typed value
// (see Value), strings and bools are labels.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = cell{fmt.Sprintf("%.2f", v), v, "", true}
		case time.Duration:
			row[i] = cell{fmtDuration(v), float64(v.Nanoseconds()), "ns", true}
		case Percent:
			row[i] = cell{fmt.Sprintf("%.1f%%", float64(v)*100), float64(v) * 100, "%", true}
		case int:
			row[i] = cell{fmt.Sprint(v), float64(v), "", true}
		case int64:
			row[i] = cell{fmt.Sprint(v), float64(v), "", true}
		case uint64:
			row[i] = cell{fmt.Sprint(v), float64(v), "", true}
		default:
			row[i] = cell{text: fmt.Sprintf("%v", c)}
		}
	}
	t.rows = append(t.rows, row)
}

// Value returns the typed value AddRow received for the cell (durations in
// nanoseconds, unit "ns"); ok is false for labels.
func (t *Table) Value(row, col int) (v float64, unit string, ok bool) {
	c := t.rows[row][col]
	return c.value, c.unit, c.numeric
}

func fmtDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fus", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c.text) > widths[i] {
				widths[i] = len(c.text)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows() {
		writeRow(row)
	}
	if t.Footer != "" {
		b.WriteString(t.Footer)
		if !strings.HasSuffix(t.Footer, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Rows returns the rendered cells (for assertions in tests).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = make([]string, len(r))
		for j, c := range r {
			out[i][j] = c.text
		}
	}
	return out
}
