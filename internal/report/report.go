// Package report renders the experiment drivers' stats.Table values
// to Markdown, CSV and JSON, and holds the canonical per-result JSON
// codec (EncodeResult, DecodeResult) that the result store persists
// and zngd serves. The generated documents docs/EXPERIMENTS.md and
// docs/DESIGN.md are composed in internal/experiments from these
// emitters.
//
// All three emitters are deterministic: cells are the already-
// formatted strings stats.Table holds (fixed float trimming), JSON
// key order is fixed by struct declaration, and nothing here consults
// the clock or iterates a map — so `zngfig -fig docs` is byte-stable
// across runs and CI can diff the generated docs against the
// committed ones.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"

	"zng/internal/stats"
)

// Formats lists the supported rendering formats — the single source
// of truth for Render and for CLI flag validation.
func Formats() []string { return []string{"md", "csv", "json"} }

// Render formats a table in the named format: "md", "csv" or "json".
func Render(t *stats.Table, format string) ([]byte, error) {
	switch format {
	case "md":
		return []byte(Markdown(t)), nil
	case "csv":
		return []byte(CSV(t)), nil
	case "json":
		return JSON(t), nil
	}
	return nil, fmt.Errorf("unknown format %q (valid: %s)", format, strings.Join(Formats(), ", "))
}

// Markdown renders the table as a GitHub-flavored Markdown document
// fragment: a level-3 heading carrying the title, then the table.
func Markdown(t *stats.Table) string {
	var b strings.Builder
	if t.Title() != "" {
		b.WriteString("### ")
		b.WriteString(t.Title())
		b.WriteString("\n\n")
	}
	b.WriteString(MarkdownTable(t))
	return b.String()
}

// MarkdownTable renders just the GFM table, for composers that manage
// their own headings.
func MarkdownTable(t *stats.Table) string {
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			b.WriteByte(' ')
			b.WriteString(mdEscape(c))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	header := t.Header()
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for r := 0; r < t.Rows(); r++ {
		writeRow(padRow(t.Row(r), len(header)))
	}
	return b.String()
}

// mdEscape protects cell text that would break a GFM table row.
func mdEscape(s string) string {
	s = strings.ReplaceAll(s, "|", `\|`)
	s = strings.ReplaceAll(s, "\n", " ")
	if s == "" {
		return " "
	}
	return s
}

// CSV renders the table as RFC 4180 CSV prefixed with a `# title`
// comment line, so concatenated tables (zngfig -fig all -format csv)
// stay separable.
func CSV(t *stats.Table) string {
	var b strings.Builder
	if t.Title() != "" {
		b.WriteString("# ")
		b.WriteString(t.Title())
		b.WriteByte('\n')
	}
	w := csv.NewWriter(&b)
	header := t.Header()
	w.Write(header)
	for r := 0; r < t.Rows(); r++ {
		w.Write(padRow(t.Row(r), len(header)))
	}
	w.Flush()
	return b.String()
}

// tableJSON fixes the JSON document's key order by declaration.
// Cells stay strings: stats.Table already applied the deterministic
// float formatting, so re-parsing would only reintroduce formatting
// ambiguity.
type tableJSON struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// toDoc converts a table to its JSON document form, shared by the
// single-table and array emitters so their shapes cannot diverge.
func toDoc(t *stats.Table) tableJSON {
	doc := tableJSON{Title: t.Title(), Header: t.Header(), Rows: make([][]string, t.Rows())}
	for r := 0; r < t.Rows(); r++ {
		doc.Rows[r] = padRow(t.Row(r), len(doc.Header))
	}
	return doc
}

// JSON renders the table as an indented JSON document with a trailing
// newline.
func JSON(t *stats.Table) []byte {
	out, err := json.MarshalIndent(toDoc(t), "", "  ")
	if err != nil {
		// Strings and slices of strings cannot fail to marshal.
		panic(err)
	}
	return append(out, '\n')
}

// DecodeTable parses a document JSON produced back into a table — the
// client half of the campaign API, so zngsweep renders a
// coordinator-folded matrix through the same emitters a local run
// uses. Cells are already-formatted strings (AddRow passes strings
// through verbatim), so JSON(DecodeTable(JSON(t))) is byte-identical.
func DecodeTable(b []byte) (*stats.Table, error) {
	var doc tableJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("report: decoding table: %w", err)
	}
	t := stats.NewTable(doc.Title, doc.Header...)
	for _, row := range doc.Rows {
		cells := make([]any, len(row))
		for i, c := range row {
			cells[i] = c
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// JSONAll renders several tables as one JSON array, so multi-figure
// output (zngfig -fig all -format json) stays a single parseable
// document instead of concatenated values.
func JSONAll(ts []*stats.Table) []byte {
	docs := make([]tableJSON, len(ts))
	for i, t := range ts {
		docs[i] = toDoc(t)
	}
	out, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// padRow right-pads a short row with empty cells to the header width,
// so every emitted record is rectangular.
func padRow(row []string, n int) []string {
	for len(row) < n {
		row = append(row, "")
	}
	return row
}
