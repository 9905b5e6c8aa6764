package main

import (
	"fmt"
	"io"
	"strings"
)

// Verdicts of one (workload, metric) comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// compareRow is one (workload, metric) comparison of two run files.
type compareRow struct {
	workload, metric string
	base, cur        float64
	// change is the relative move of the median, positive when worse.
	change, spread, bound float64
	verdict               string
}

// verdictFor applies the regression rule to one metric's runs. A median
// move worse than the bound is worse. When the base runs spread wider than
// the bound the metric is unresolved, unless every new run beats every base
// run. A median improvement larger than the base runs' own spread, with the
// new run winning at least nine tenths of all (base, new) pairs, is better;
// anything else is the same.
func verdictFor(m specMetric, baseRuns, curRuns []float64) compareRow {
	base, cur := summarize(m.Unit, baseRuns), summarize(m.Unit, curRuns)
	row := compareRow{metric: m.Name, base: base.Median, cur: cur.Median, spread: base.spread(), bound: m.Bound}
	if base.Median != 0 {
		row.change = (cur.Median - base.Median) / base.Median
	}
	if m.Better == "higher" {
		row.change = -row.change
	}
	wins := pairWins(m, baseRuns, curRuns)
	switch {
	case row.spread > m.Bound && wins == 1:
		row.verdict = better
	case row.spread > m.Bound:
		row.verdict = unresolved
	case row.change > m.Bound:
		row.verdict = worse
	case -row.change > row.spread && wins >= 0.9:
		row.verdict = better
	default:
		row.verdict = same
	}
	return row
}

// pairWins is the share of (base, new) run pairs in which the new run
// reads strictly better.
func pairWins(m specMetric, base, cur []float64) float64 {
	if len(base) == 0 || len(cur) == 0 {
		return 0
	}
	wins := 0
	for _, b := range base {
		for _, c := range cur {
			if (m.Better == "higher" && c > b) || (m.Better != "higher" && c < b) {
				wins++
			}
		}
	}
	return float64(wins) / float64(len(base)*len(cur))
}

// compareRuns compares every end-to-end metric of every workload of base
// with cur, plus the error rate, which may not rise at all. It also returns
// a warning per environment field that differs.
func compareRuns(spec *benchSpec, base, cur *runFile) ([]compareRow, []string) {
	var warnings []string
	be, ce := base.Env, cur.Env
	for _, d := range []struct{ field, a, b string }{
		{"go", be.Go, ce.Go},
		{"cpu", be.CPU, ce.CPU},
		{"nproc", fmt.Sprint(be.NumCPU), fmt.Sprint(ce.NumCPU)},
		{"gomaxprocs", fmt.Sprint(be.GOMAXPROCS), fmt.Sprint(ce.GOMAXPROCS)},
		{"commit", be.Commit, ce.Commit},
	} {
		if d.a != d.b {
			warnings = append(warnings, fmt.Sprintf("environment differs: %s %q vs %q", d.field, d.a, d.b))
		}
	}
	if base.Seed != cur.Seed {
		warnings = append(warnings, fmt.Sprintf("seeds differ: %d vs %d", base.Seed, cur.Seed))
	}
	curByName := map[string]workloadRun{}
	for _, w := range cur.Workloads {
		curByName[w.Name] = w
	}
	var rows []compareRow
	for _, bw := range base.Workloads {
		cw, ok := curByName[bw.Name]
		if !ok {
			warnings = append(warnings, fmt.Sprintf("workload %s missing from the new run", bw.Name))
			continue
		}
		for _, m := range spec.EndToEnd {
			bs, ok1 := bw.Metrics[m.Name]
			cs, ok2 := cw.Metrics[m.Name]
			if !ok1 || !ok2 {
				warnings = append(warnings, fmt.Sprintf("%s: metric %s missing", bw.Name, m.Name))
				continue
			}
			row := verdictFor(m, bs.Samples, cs.Samples)
			row.workload = bw.Name
			rows = append(rows, row)
		}
		row := compareRow{workload: bw.Name, metric: "error_rate", base: bw.ErrorRate, cur: cw.ErrorRate, verdict: same}
		switch {
		case cw.ErrorRate > bw.ErrorRate:
			row.verdict = worse
		case cw.ErrorRate < bw.ErrorRate:
			row.verdict = better
		}
		rows = append(rows, row)
	}
	return rows, warnings
}

// runCompare prints the comparison of two run files. It exits 1 when a
// row is worse or unresolved: the new run is then not shown to be within
// its bounds.
func runCompare(o options, basePath, curPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	base, err := readRunFile(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	cur, err := readRunFile(curPath)
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	rows, warnings := compareRuns(spec, base, cur)
	for _, w := range warnings {
		fmt.Fprintln(stderr, "avgperf: warning:", w)
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "base", "new", "worse", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-16s %-16s %14.6g %14.6g %7.1f%% %7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.base, r.cur, 100*r.change, 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict == worse || r.verdict == unresolved {
			code = 1
		}
	}
	return code
}

// runMarkdown prints a run file's numbers as Markdown: the end-to-end
// metrics (median and quartiles of the runs) and the per-layer metrics of
// the traced pass, one column per workload.
func runMarkdown(path string, stdout io.Writer) error {
	rf, err := readRunFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Seed %d, %d runs per workload; %s, %s, nproc %d, GOMAXPROCS %d, commit %s.\n\n",
		rf.Seed, rf.Runs, rf.Env.Go, rf.Env.CPU, rf.Env.NumCPU, rf.Env.GOMAXPROCS, rf.Env.Commit)
	names := make([]string, len(rf.Workloads))
	for i, w := range rf.Workloads {
		names[i] = w.Name
	}
	header := func(first string) {
		fmt.Fprintf(stdout, "| %s | unit | %s |\n", first, strings.Join(names, " | "))
		fmt.Fprintf(stdout, "|---|---|%s\n", strings.Repeat("---|", len(names)))
	}
	header("end-to-end (median [q1, q3])")
	e2e := map[string]bool{}
	for _, w := range rf.Workloads {
		for k := range w.Metrics {
			e2e[k] = true
		}
	}
	for _, name := range sortedKeys(e2e) {
		cells := make([]string, len(rf.Workloads))
		unit := ""
		for i, w := range rf.Workloads {
			s, ok := w.Metrics[name]
			if !ok {
				cells[i] = "–"
				continue
			}
			unit = s.Unit
			cells[i] = fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
		}
		fmt.Fprintf(stdout, "| %s | %s | %s |\n", name, unit, strings.Join(cells, " | "))
	}
	errs := make([]string, len(rf.Workloads))
	for i, w := range rf.Workloads {
		errs[i] = fmt.Sprintf("%g (%d/%d)", w.ErrorRate, w.Failed, w.Attempted)
	}
	fmt.Fprintf(stdout, "| error_rate | ratio | %s |\n\n", strings.Join(errs, " | "))

	header("per-layer (traced pass)")
	layers := map[string]bool{}
	for _, w := range rf.Workloads {
		for k := range w.Layers {
			layers[k] = true
		}
	}
	for _, name := range sortedKeys(layers) {
		cells := make([]string, len(rf.Workloads))
		for i, w := range rf.Workloads {
			cells[i] = "–"
			if v, ok := w.Layers[name]; ok {
				cells[i] = fmt.Sprintf("%.4g", v.Value)
			}
		}
		fmt.Fprintf(stdout, "| %s | %s | %s |\n", name, layerUnits[name], strings.Join(cells, " | "))
	}
	return nil
}
