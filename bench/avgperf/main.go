// Command avgperf is the end-to-end and per-layer benchmark of the sweep
// pipeline (ball source → identifier draw → decide → fold → coordinate).
// bench/run.sh builds it and runs it from the repository root:
//
//	bash bench/run.sh -seed 1 -out .bench_build/run.json   # every workload: 5 runs each, then the traced pass
//	bash bench/run.sh --workload exact-quotient --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -compare base.json new.json          # verdict per (workload, metric)
//	bash bench/run.sh -markdown .bench_build/run.json      # the numbers table of bench/README.md
//
// The load is closed-loop and batch. Every measured run is a fresh child
// process with GOMAXPROCS=2 running the workload cold, then warm: fresh
// processes are what an avgbench user pays for, and they keep the
// process-wide atlas cache from leaking between workloads. End-to-end
// numbers are always taken untraced; -trace 1 (and the full run) adds a
// separate traced pass that reports the per-layer metrics. Every table is
// checked: against the committed digests at seed 1, and at any seed against
// every other table of the run. A failed check makes the command exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// minRuns is the fewest fresh child processes a single-workload run
// measures, however short its -seconds.
const minRuns = 3

// fullRuns is the number of fresh child processes per workload of a full
// run.
const fullRuns = 5

// singleRunLimit bounds a single-workload run, which must end within three
// minutes.
const singleRunLimit = 170 * time.Second

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	out         string
	spans       string
	compare     bool
	markdown    string
	writeGolden bool
	specPath    string
	goldenPath  string
	child       string
	want        string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("avgperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print one JSON result line")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (experiments.Config.Seed)")
	fs.IntVar(&o.seconds, "seconds", 10, "with -workload: keep starting measured runs until this many seconds have passed")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 1 reports the per-layer metrics of the traced pass instead")
	fs.StringVar(&o.out, "out", "", "without -workload: write the run's JSON result here")
	fs.StringVar(&o.spans, "spans", "", "write the traced pass's spans (JSON, keyed by workload) here")
	fs.BoolVar(&o.compare, "compare", false, "compare two run files: -compare BASE.json NEW.json")
	fs.StringVar(&o.markdown, "markdown", "", "print the numbers of this run file as Markdown tables")
	fs.BoolVar(&o.writeGolden, "write-golden", false, "recompute the seed-1 table digests into the -golden file")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark definition: metric names, units, directions, bounds")
	fs.StringVar(&o.goldenPath, "golden", "bench/testdata/golden-seed1.json", "committed seed-1 table digests")
	fs.StringVar(&o.child, "child", "", "internal: run as a measuring (measure) or tracing (trace) child")
	fs.StringVar(&o.want, "want", "", "internal: the table digest a tracing child must reproduce")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "avgperf: -trace must be 0 or 1")
		return 2
	}
	var err error
	switch {
	case o.child != "":
		err = runChild(ctx, o, stdout)
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "avgperf: -compare needs BASE.json NEW.json")
			return 2
		}
		return runCompare(o, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.markdown != "":
		err = runMarkdown(o.markdown, stdout)
	case o.writeGolden:
		err = writeGolden(ctx, o.goldenPath)
	case o.workload != "":
		return runSingle(ctx, o, stdout, stderr)
	default:
		return runFull(ctx, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	return 0
}

// runChild is the child-process side: run one workload and print the JSON
// report for the parent.
func runChild(ctx context.Context, o options, stdout io.Writer) error {
	w, err := workloadNamed(o.workload)
	if err != nil {
		return err
	}
	var rep any
	switch o.child {
	case "measure":
		rep = measureChild(ctx, w, o.seed)
	case "trace":
		rep = tracePass(ctx, w, o.seed, o.want)
	default:
		return fmt.Errorf("unknown child mode %q", o.child)
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// runSingle measures one workload and prints one JSON line: the end-to-end
// metrics, or with -trace 1 the per-layer ones. It exits 1 when a table is
// wrong, after printing the line.
func runSingle(ctx context.Context, o options, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(ctx, singleRunLimit)
	defer cancel()
	line, err := single(ctx, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

func single(ctx context.Context, o options, stderr io.Writer) (resultLine, error) {
	var line resultLine
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return line, err
	}
	w, err := workloadNamed(o.workload)
	if err != nil {
		return line, err
	}
	golden, err := loadGolden(o.goldenPath)
	if err != nil {
		return line, err
	}
	want, err := wantDigest(golden, w, o.seed)
	if err != nil {
		return line, err
	}
	var c checker
	if o.trace == 0 {
		m, err := measureWorkload(ctx, w, o.seed, minRuns, time.Duration(o.seconds)*time.Second, want)
		if err != nil {
			return line, err
		}
		c = m.checker
		line.Metrics, err = pick(spec.EndToEnd, func(name string) (float64, bool) {
			s, ok := m.samples[name]
			if !ok {
				return 0, false
			}
			return medianOf(s), true
		})
		if err != nil {
			return line, err
		}
	} else {
		rep, err := traceWorkload(ctx, w, o.seed, want)
		if err != nil {
			return line, err
		}
		c = checker{attempted: rep.Attempted, failed: rep.Failed, problems: rep.Problems}
		if err := writeSpans(o.spans, map[string][]span{w.name: rep.Spans}); err != nil {
			return line, err
		}
		line.Metrics, err = pick(spec.PerLayer, func(name string) (float64, bool) {
			v, ok := rep.Metrics[name]
			return v, ok
		})
		if err != nil {
			return line, err
		}
	}
	for _, p := range c.problems {
		fmt.Fprintf(stderr, "avgperf: %s: %s\n", w.name, p)
	}
	line.Correct, line.Attempted, line.Failed = c.failed == 0, c.attempted, c.failed
	return line, nil
}

// runFull measures every workload in fullRuns fresh processes, runs each
// traced pass, prints the numbers and writes the -out file. It exits 1 when
// any check failed.
func runFull(ctx context.Context, o options, stdout, stderr io.Writer) int {
	rf, spans, err := full(ctx, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "avgperf:", err)
			return 1
		}
	}
	if err := writeSpans(o.spans, spans); err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	code := 0
	for _, wr := range rf.Workloads {
		for _, p := range wr.Problems {
			fmt.Fprintf(stderr, "avgperf: %s: %s\n", wr.Name, p)
		}
		if wr.Failed > 0 {
			code = 1
		}
	}
	return code
}

func full(ctx context.Context, o options, stdout io.Writer) (*runFile, map[string][]span, error) {
	golden, err := loadGolden(o.goldenPath)
	if err != nil {
		return nil, nil, err
	}
	rf := &runFile{Env: currentEnv(), Seed: o.seed, Runs: fullRuns}
	spans := map[string][]span{}
	for _, w := range workloads {
		want, err := wantDigest(golden, w, o.seed)
		if err != nil {
			return nil, nil, err
		}
		m, err := measureWorkload(ctx, w, o.seed, fullRuns, 0, want)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		tr, err := traceWorkload(ctx, w, o.seed, want)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		spans[w.name] = tr.Spans
		wr := workloadRun{
			Name:      w.name,
			Attempted: m.attempted + tr.Attempted,
			Failed:    m.failed + tr.Failed,
			Problems:  append(m.problems, tr.Problems...),
			Metrics:   map[string]summary{},
			Layers:    map[string]valueUnit{},
		}
		wr.ErrorRate = float64(wr.Failed) / float64(max(1, wr.Attempted))
		for name, s := range m.samples {
			wr.Metrics[name] = summarize(e2eUnits[name], s)
		}
		for name, v := range tr.Metrics {
			wr.Layers[name] = valueUnit{Value: v, Unit: layerUnits[name]}
		}
		rf.Workloads = append(rf.Workloads, wr)
		printWorkload(stdout, wr)
	}
	return rf, spans, nil
}

// printWorkload prints one workload's numbers as they complete.
func printWorkload(w io.Writer, wr workloadRun) {
	fmt.Fprintf(w, "%s: error_rate %g (%d failed of %d)\n", wr.Name, wr.ErrorRate, wr.Failed, wr.Attempted)
	for _, name := range sortedKeys(wr.Metrics) {
		s := wr.Metrics[name]
		fmt.Fprintf(w, "  %-16s %-12.6g %-5s q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g n=%d\n",
			name, s.Median, s.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	for _, name := range sortedKeys(wr.Layers) {
		v := wr.Layers[name]
		fmt.Fprintf(w, "  %-30s %-14.6g %s\n", name, v.Value, v.Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSpans writes spans to path as JSON; an empty path writes nothing.
func writeSpans(path string, spans map[string][]span) error {
	if path == "" {
		return nil
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeGolden recomputes every workload's table digest at the golden seed
// and writes them to path.
func writeGolden(ctx context.Context, path string) error {
	golden := map[string]string{}
	for _, w := range workloads {
		table, _, err := w.run(ctx, goldenSeed, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		golden[w.name] = digest(table)
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
