package stats

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table used by the experiment
// drivers to print figure series in the same layout the paper reports.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row; cells are formatted with %v, floats with %.3g
// unless already strings.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = FormatFloat(v)
		case float32:
			row[i] = FormatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows reports the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Title returns the table title.
func (t *Table) Title() string { return t.title }

// Header returns a copy of the column headers.
func (t *Table) Header() []string {
	out := make([]string, len(t.header))
	copy(out, t.header)
	return out
}

// Cell returns the formatted cell at row r, column c.
func (t *Table) Cell(r, c int) string { return t.rows[r][c] }

// Row returns a copy of data row r. Rows may be shorter than the
// header when trailing cells were omitted.
func (t *Table) Row(r int) []string {
	out := make([]string, len(t.rows[r]))
	copy(out, t.rows[r])
	return out
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// FormatFloat renders a float the way table cells do: three decimals
// with trailing zeros (and a bare sign) trimmed. It is the
// deterministic formatting every emitter shares.
func FormatFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}
