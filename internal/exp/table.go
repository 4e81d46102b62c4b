// Package exp defines the paper's experiments — one per table and figure —
// on top of the core simulation API, and renders their results as aligned
// text tables or CSV. The cmd/experiments binary and the repository's
// benchmarks are thin wrappers around this package.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is one rendered result: the rows the paper's table carries, or the
// data series behind one of its figures.
type Table struct {
	// ID is the experiment identifier, e.g. "Figure1".
	ID string
	// Title describes the table.
	Title string
	// Notes carry interpretation hints printed under the table.
	Notes []string
	// Headers and Rows are the grid; all rows must have len(Headers)
	// cells.
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// formatFloat renders floats compactly: integers without decimals, small
// magnitudes with two decimals, large with one.
func formatFloat(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		b.WriteString(strings.Join(parts, "  ") + "\n")
	}
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	line(t.Headers)
	total := max(len(widths)-1, 0)
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Markdown writes the table as a GitHub-flavoured markdown table with the
// title as a heading and notes as a blockquote — ready to paste into a
// report or issue.
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	row := func(cells []string) {
		escaped := make([]string, len(cells))
		for i, c := range cells {
			escaped[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		fmt.Fprintf(&b, "| %s |\n", strings.Join(escaped, " | "))
	}
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	row(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	row(sep)
	for _, r := range t.Rows {
		row(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (cells containing commas
// or quotes are quoted).
func (t *Table) CSV(w io.Writer) error {
	return csv.NewWriter(w).WriteAll(append([][]string{t.Headers}, t.Rows...))
}
