package harness

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"

	"livepoints/internal/uarch"
)

// Table is one paper artifact as measured: every ledger entry returns one
// and String is the one renderer.
type Table struct {
	Title string
	// Columns names every column; the first heads the row labels.
	Columns []string
	Rows    []Row
	// Headlines are the artifact's summary numbers, each beside the
	// paper's value. The paper's values are shown, never asserted: at
	// reduced scale they do not hold.
	Headlines []Headline
	Notes     []string
}

// Row is one labelled line of a Table, a cell for each column after the
// first.
type Row struct {
	Label string
	Cells []Cell
}

// Cell is a number drawn with Fmt or, when Fmt is empty, Text. Numbers are
// kept in the units they are drawn in (a bias of 1.2 % is 1.2).
type Cell struct {
	V    float64
	Fmt  string
	Text string
}

func num(format string, v float64) Cell { return Cell{V: v, Fmt: format} }
func text(s string) Cell                { return Cell{Text: s} }

func (c Cell) String() string {
	if c.Fmt == "" {
		return c.Text
	}
	return fmt.Sprintf(c.Fmt, c.V)
}

// Headline is one summary number. Metric is also the unit it is reported
// under by the root package's BenchmarkArtifacts, so it holds no space.
type Headline struct {
	Metric string
	Value  float64
	Paper  string // the paper's value, or "" where it gives none
}

// Value returns the number at row label and column name; ok is false when
// there is no such row or column or the cell is text.
func (t *Table) Value(label, column string) (v float64, ok bool) {
	i := slices.Index(t.Columns, column)
	for _, r := range t.Rows {
		if i > 0 && r.Label == label && r.Cells[i-1].Fmt != "" {
			return r.Cells[i-1].V, true
		}
	}
	return 0, false
}

// column returns the numbers of the named column in row order.
func (t *Table) column(name string) []float64 {
	i := slices.Index(t.Columns, name) - 1
	out := make([]float64, len(t.Rows))
	for k, r := range t.Rows {
		out[k] = r.Cells[i].V
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// String draws the table: the title, the columns (numbers right-aligned,
// a column holding only text left-aligned), the notes and the headlines.
func (t *Table) String() string {
	grid := [][]string{t.Columns}
	numeric := make([]bool, len(t.Columns))
	for _, r := range t.Rows {
		line := []string{r.Label}
		for i, c := range r.Cells {
			line = append(line, c.String())
			numeric[i+1] = numeric[i+1] || c.Fmt != ""
		}
		grid = append(grid, line)
	}
	width := make([]int, len(t.Columns))
	for _, line := range grid {
		for i, s := range line {
			width[i] = max(width[i], utf8.RuneCountInString(s))
		}
	}
	var b strings.Builder
	fmt.Fprintln(&b, t.Title)
	for _, line := range grid {
		var l strings.Builder
		for i, s := range line {
			pad := strings.Repeat(" ", width[i]-utf8.RuneCountInString(s))
			switch {
			case i == 0:
				l.WriteString(s + pad)
			case numeric[i]:
				l.WriteString("  " + pad + s)
			default:
				l.WriteString("  " + s + pad)
			}
		}
		fmt.Fprintln(&b, strings.TrimRight(l.String(), " "))
	}
	for _, n := range t.Notes {
		fmt.Fprintln(&b, n)
	}
	for _, h := range t.Headlines {
		fmt.Fprintf(&b, "  %-18s %10.2f", h.Metric, h.Value)
		if h.Paper != "" {
			fmt.Fprintf(&b, "   paper: %s", h.Paper)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Artifact is one entry of the ledger: a table the paper prints.
type Artifact struct {
	// Key selects the entry in cmd/experiments' -exp. Figure 4 (stitched
	// and unstitched) and Table 2 (two machines) are two entries each.
	Key string
	// Name is unique: the sub-benchmark of the root package's
	// BenchmarkArtifacts.
	Name string
	Run  func(*Context) (*Table, error)
}

// Artifacts is the ledger of the paper's evaluation. Each Run measures
// afresh, except that Table 3 reuses the Figure 4, Figure 5 and Table 2
// tables its Context already holds (see kept).
var Artifacts = []Artifact{
	{"table1", "table1", func(*Context) (*Table, error) { return Table1(), nil }},
	{"fig1", "fig1", (*Context).figure1},
	{"fig4", "fig4-stitched", func(c *Context) (*Table, error) { return c.figure4(true) }},
	{"fig4", "fig4-unstitched", func(c *Context) (*Table, error) { return c.figure4(false) }},
	{"fig5", "fig5", (*Context).figure5},
	{"fig7", "fig7", (*Context).figure7},
	{"fig8", "fig8", (*Context).figure8},
	{"table2", "table2-8-way", func(c *Context) (*Table, error) { return c.table2(uarch.Config8Way()) }},
	{"table2", "table2-16-way", func(c *Context) (*Table, error) { return c.table2(uarch.Config16Way()) }},
	{"table3", "table3", (*Context).table3},
	{"accuracy", "accuracy", (*Context).accuracy},
	{"matched", "matched", (*Context).matched},
	{"scaling", "scaling", (*Context).scaling},
	{"online", "online", (*Context).online},
}

// Keys returns the ledger's keys in ledger order, each once.
func Keys() []string {
	var keys []string
	for _, a := range Artifacts {
		if !slices.Contains(keys, a.Key) {
			keys = append(keys, a.Key)
		}
	}
	return keys
}

// Select returns the entries a comma-separated list of keys names, in
// ledger order; "all" names every entry. A key the ledger does not have is
// an error that lists the keys it has.
func Select(list string) ([]Artifact, error) {
	keys := append(Keys(), "all")
	want := map[string]bool{}
	for _, k := range strings.Split(list, ",") {
		k = strings.TrimSpace(k)
		if !slices.Contains(keys, k) {
			return nil, fmt.Errorf("unknown experiment %q (have %s)", k, strings.Join(keys, ","))
		}
		want[k] = true
	}
	var out []Artifact
	for _, a := range Artifacts {
		if want["all"] || want[a.Key] {
			out = append(out, a)
		}
	}
	return out, nil
}

// kept returns the table this Context last built under the entry name,
// running run when it has none. Table 3 is assembled from other entries'
// tables this way, so a run of the whole ledger measures each once.
func (c *Context) kept(name string, run func() (*Table, error)) (*Table, error) {
	c.mu.Lock()
	t := c.tables[name]
	c.mu.Unlock()
	if t != nil {
		return t, nil
	}
	return run()
}

// keep records t as the table built under the entry name.
func (c *Context) keep(name string, t *Table) *Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[name] = t
	return t
}
