// Package report renders result tables as aligned text, Markdown, or CSV
// — the presentation layer the experiment harness shares, kept separate
// so the rows themselves stay testable data.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Format selects the output syntax.
type Format int

// Supported formats.
const (
	Text Format = iota
	Markdown
	CSV
)

// ParseFormat maps a flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "text":
		return Text, nil
	case "md", "markdown":
		return Markdown, nil
	case "csv":
		return CSV, nil
	default:
		return Text, fmt.Errorf("report: unknown format %q", s)
	}
}

// Table is a rendered experiment table: a title, a header, and rows of
// cells. Numeric alignment is inferred per column.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Footer lines print after the table (totals, summaries).
	Footer []string
}

// Add appends a row built from formatted values.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table in the requested format.
func (t *Table) Render(w io.Writer, f Format) error {
	switch f {
	case Markdown:
		return t.renderMarkdown(w)
	case CSV:
		return t.renderCSV(w)
	default:
		return t.renderText(w)
	}
}

func (t *Table) colWidths() []int {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	return widths
}

// numericColumn reports whether every cell of column i parses as a number
// (leading sign, digits, one dot, optional % suffix).
func (t *Table) numericColumn(i int) bool {
	seen := false
	for _, row := range t.Rows {
		if i >= len(row) || row[i] == "" {
			continue
		}
		seen = true
		if !looksNumeric(row[i]) {
			return false
		}
	}
	return seen
}

func looksNumeric(s string) bool {
	s = strings.TrimSuffix(s, "%")
	if s == "" {
		return false
	}
	if s[0] == '-' || s[0] == '+' {
		s = s[1:]
	}
	dot := false
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && !dot:
			dot = true
		default:
			return false
		}
	}
	return s != "" && s != "."
}

func (t *Table) renderText(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintln(w, t.Title); err != nil {
			return err
		}
	}
	widths := t.colWidths()
	numeric := make([]bool, len(t.Header))
	for i := range t.Header {
		numeric[i] = t.numericColumn(i)
	}
	line := func(cells []string) string {
		parts := make([]string, len(t.Header))
		for i := range t.Header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if numeric[i] {
				parts[i] = fmt.Sprintf("%*s", widths[i], c)
			} else {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, f := range t.Footer {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) renderMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	row := func(cells []string) string {
		escaped := make([]string, len(cells))
		for i, c := range cells {
			escaped[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		return "| " + strings.Join(escaped, " | ") + " |"
	}
	if _, err := fmt.Fprintln(w, row(t.Header)); err != nil {
		return err
	}
	seps := make([]string, len(t.Header))
	for i := range seps {
		if t.numericColumn(i) {
			seps[i] = "---:"
		} else {
			seps[i] = ":---"
		}
	}
	if _, err := fmt.Fprintln(w, row(seps)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, row(r)); err != nil {
			return err
		}
	}
	for _, f := range t.Footer {
		if _, err := fmt.Fprintf(w, "\n%s\n", f); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) renderCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(quoted, ","))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}
