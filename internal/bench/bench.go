// Package bench regenerates every evaluation figure of the paper as a
// printed table: Fig. 5 (bandwidth vs message size), Fig. 6 (degree
// counting weak/strong scaling), Fig. 7 (connected components scaling
// with broadcast counts), and Fig. 8 (SpMV scaling against the
// CombBLAS-style 2D baseline, with delegate growth), plus the ablation
// studies DESIGN.md calls out. Experiments run on the simulated cluster
// and report simulated seconds; see EXPERIMENTS.md for the
// paper-vs-measured comparison.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Row is one data point of an experiment series.
type Row struct {
	// Labels identify the point (e.g. nodes=8, scheme=NLNR).
	Labels []Label
	// Values are the measured quantities in column order.
	Values []Value
}

// Label is a key with a discrete value.
type Label struct {
	Key string
	Val string
}

// Value is a named measurement.
type Value struct {
	Key string
	Val float64
	// Unit is a display suffix ("s", "GB/s", "msgs").
	Unit string
}

// Table is a printable experiment result.
type Table struct {
	// ID is the figure identifier ("fig6a").
	ID string
	// Title describes what the paper's figure shows.
	Title string
	Rows  []Row
}

// Add appends a row.
func (t *Table) Add(r Row) { t.Rows = append(t.Rows, r) }

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	if len(t.Rows) == 0 {
		fmt.Fprintln(w, "(no rows)")
		return
	}
	cells := t.cells()
	widths := make([]int, len(cells[0]))
	for _, row := range cells {
		for c, s := range row {
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for _, row := range cells {
		var b strings.Builder
		for c, s := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], s)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// PrintCSV renders the table as comma-separated values (one header row),
// for piping into plotting tools.
func (t *Table) PrintCSV(w io.Writer) {
	if len(t.Rows) == 0 {
		return
	}
	for _, row := range t.cells() {
		for c, s := range row {
			if c > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(s, ",\"") {
				s = "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, s)
		}
		fmt.Fprintln(w)
	}
}

// cells materializes the header and body of the table. Labels come
// first, then values, in first-seen order; units are dropped in favour
// of raw numbers when rendering for CSV consumers via formatValue.
func (t *Table) cells() [][]string {
	// Collect column order: labels first, then values, in first-seen order.
	var cols []string
	seen := map[string]bool{}
	for _, r := range t.Rows {
		for _, l := range r.Labels {
			if !seen["l:"+l.Key] {
				seen["l:"+l.Key] = true
				cols = append(cols, "l:"+l.Key)
			}
		}
		for _, v := range r.Values {
			if !seen["v:"+v.Key] {
				seen["v:"+v.Key] = true
				cols = append(cols, "v:"+v.Key)
			}
		}
	}
	cells := make([][]string, len(t.Rows)+1)
	cells[0] = make([]string, len(cols))
	for c, col := range cols {
		cells[0][c] = col[2:]
	}
	for i, r := range t.Rows {
		row := make([]string, len(cols))
		lm := map[string]string{}
		for _, l := range r.Labels {
			lm[l.Key] = l.Val
		}
		vm := map[string]Value{}
		for _, v := range r.Values {
			vm[v.Key] = v
		}
		for c, col := range cols {
			if strings.HasPrefix(col, "l:") {
				row[c] = lm[col[2:]]
			} else if v, ok := vm[col[2:]]; ok {
				row[c] = formatValue(v)
			}
		}
		cells[i+1] = row
	}
	return cells
}

func formatValue(v Value) string {
	var s string
	switch {
	case v.Val == 0:
		s = "0"
	case v.Val >= 1e6 || v.Val < 1e-3:
		s = fmt.Sprintf("%.3e", v.Val)
	case v.Val >= 100:
		s = fmt.Sprintf("%.1f", v.Val)
	default:
		s = fmt.Sprintf("%.4g", v.Val)
	}
	if v.Unit != "" {
		s += " " + v.Unit
	}
	return s
}

// Get returns the named value of a row and whether it exists.
func (r Row) Get(key string) (float64, bool) {
	for _, v := range r.Values {
		if v.Key == key {
			return v.Val, true
		}
	}
	return 0, false
}

// LabelVal returns the named label value.
func (r Row) LabelVal(key string) string {
	for _, l := range r.Labels {
		if l.Key == key {
			return l.Val
		}
	}
	return ""
}

// Select returns the rows whose label key equals val.
func (t *Table) Select(key, val string) []Row {
	var out []Row
	for _, r := range t.Rows {
		if r.LabelVal(key) == val {
			out = append(out, r)
		}
	}
	return out
}

// Experiments lists every experiment with its plan, in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"topo", "Figs. 1-4: exchange topology summary (partner counts per scheme)", topoPlan},
		{"fig5", "Fig. 5: network bandwidth vs message size (eager/rendezvous switch)", fig5Plan},
		{"fig6a", "Fig. 6a: degree counting weak scaling", fig6aPlan},
		{"fig6b", "Fig. 6b: degree counting strong scaling", fig6bPlan},
		{"fig7a", "Fig. 7a: connected components weak scaling (with broadcast counts)", fig7aPlan},
		{"fig7b", "Fig. 7b: connected components strong scaling", fig7bPlan},
		{"fig8a", "Fig. 8a: SpMV weak scaling, RMAT with delegates, vs CombBLAS-style 2D", fig8aPlan},
		{"fig8b", "Fig. 8b: delegate count growth under SpMV weak scaling", fig8bPlan},
		{"fig8c", "Fig. 8c: SpMV weak scaling, uniform without delegates, vs CombBLAS-style 2D", fig8cPlan},
		{"fig8d", "Fig. 8d: SpMV strong scaling on a webgraph-like matrix (mailbox scaled with N)", fig8dPlan},
		{"fig8x", "Fig. 8a/8c crossover study: YGM vs 2D baseline at paper-scale volumes", fig8xPlan},
		{"ablation-mailbox", "Ablation: mailbox capacity sweep", ablationMailboxPlan},
		{"ablation-exchange", "Ablation: async send/recv vs ALLTOALLV-backed exchanges (III-A)", ablationExchangePlan},
		{"ablation-straggler", "Ablation: async mailbox vs synchronous exchange under stragglers", ablationStragglerPlan},
		{"ablation-zerocopy", "Ablation: Section VII zero-copy local exchanges", ablationZeroCopyPlan},
		{"ablation-bcast", "Ablation: broadcast remote cost per scheme", ablationBroadcastPlan},
	}
}

// Experiment couples a figure id with its plan: the decomposition of
// the experiment into independent cells. A Runner executes the cells
// serially or across a worker pool and reassembles their rows in plan
// order, so serial and parallel sweeps produce identical tables by
// construction.
type Experiment struct {
	ID    string
	Title string
	Plan  func(p Preset) Plan
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}
