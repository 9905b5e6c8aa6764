// Package experiments turns every quantitative claim of the paper into a
// reproducible experiment E1..E12 (see EXPERIMENTS.md for the index) with a
// uniform table output, shared by cmd/avgbench and the root benchmark
// suite. All experiments execute on the sharded sweep engine
// (internal/sweep): equal seeds reproduce tables exactly at any worker
// count, and a context cancels mid-sweep with a prompt error.
package experiments

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
)

// Table is one experiment's output: a titled grid of cells. The JSON tags
// define the machine-readable schema emitted by cmd/avgbench -json.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Notes carry the experiment's verdicts (fits, checks) printed below
	// the grid.
	Notes []string `json:"notes,omitempty"`
}

// Cell is one pre-typed table cell. Rows are built from Cells instead of
// ...any because tables are assembled inside benchmarked experiment runs:
// boxing every int and float into an interface costs an allocation per
// cell, while a []Cell variadic stays on the caller's stack.
type Cell struct {
	kind byte
	i    int64
	f    float64
	s    string
}

const (
	cellInt byte = iota
	cellFloat
	cellString
	cellBool
)

// ci, cf, cs and cb wrap ints (and the bool flavour), %.3f-rendered floats
// and strings as cells.
func ci[T int | int64](v T) Cell { return Cell{kind: cellInt, i: int64(v)} }
func cf(v float64) Cell          { return Cell{kind: cellFloat, f: v} }
func cs(v string) Cell           { return Cell{kind: cellString, s: v} }
func cb(v bool) Cell {
	if v {
		return Cell{kind: cellBool, i: 1}
	}
	return Cell{kind: cellBool}
}

// AddRow appends a row, formatting ints with %d, floats with %.3f, bools
// as true/false. All cells of the row are rendered into one backing string
// and sliced, so a row costs three allocations instead of one per cell.
func (t *Table) AddRow(cells ...Cell) {
	row := make([]string, len(cells))
	var offsArr [16]int
	offs := offsArr[:0]
	if len(cells) > len(offsArr) {
		offs = make([]int, 0, len(cells))
	}
	var buf []byte
	for _, c := range cells {
		switch c.kind {
		case cellInt:
			buf = strconv.AppendInt(buf, c.i, 10)
		case cellFloat:
			buf = strconv.AppendFloat(buf, c.f, 'f', 3, 64)
		case cellString:
			buf = append(buf, c.s...)
		case cellBool:
			buf = strconv.AppendBool(buf, c.i != 0)
		}
		offs = append(offs, len(buf))
	}
	backing := string(buf)
	start := 0
	for i, end := range offs {
		row[i] = backing[start:end]
		start = end
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted verdict line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render produces an aligned, human-readable text table.
func (t *Table) Render() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// WriteCSV emits the table (without notes) as CSV.
func (t *Table) WriteCSV(w *csv.Writer) error {
	if err := w.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
