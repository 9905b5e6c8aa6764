package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/sweep"
)

// smokeConfigs shrink every workload to a size that runs in milliseconds.
var smokeConfigs = map[string]experiments.Config{
	"sampled-atlas":   {Sizes: []int{16, 64}, Trials: 4},
	"implicit-1e6":    {Sizes: []int{256}, Trials: 2},
	"exact-quotient":  {Sizes: []int{6}, Trials: 10, Quotient: true},
	"leased-dirstore": {Sizes: []int{16, 32}, Trials: 8},
	"colouring-view":  {Sizes: []int{16, 64}, Trials: 2},
}

func smoke(t *testing.T) []workload {
	t.Helper()
	out := make([]workload, len(workloads))
	for i, w := range workloads {
		cfg, ok := smokeConfigs[w.name]
		if !ok {
			t.Fatalf("no smoke config for workload %s", w.name)
		}
		w.cfg = cfg
		out[i] = w
	}
	return out
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMetricsEmitted runs every workload at smoke scale, measured and
// traced, and checks that every metric BENCHMARK.json names comes out
// finite, with the unit BENCHMARK.json gives it.
func TestSpecMetricsEmitted(t *testing.T) {
	spec := readSpec(t)
	for _, m := range spec.EndToEnd {
		if e2eUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q here", m.Name, m.Unit, e2eUnits[m.Name])
		}
	}
	for _, m := range spec.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s: unit %q in BENCHMARK.json, %q here", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
	ctx := context.Background()
	for _, w := range smoke(t) {
		t.Run(w.name, func(t *testing.T) {
			decisions, err := w.decisions(3)
			if err != nil {
				t.Fatal(err)
			}
			m := newMeasured("")
			spawned := time.Now()
			m.add(measureChild(ctx, w, 3), childRun{spawned: spawned, rssMB: 1}, decisions)
			if m.failed != 0 {
				t.Fatalf("measured run failed checks: %v", m.problems)
			}
			for _, sm := range spec.EndToEnd {
				v, ok := m.samples[sm.Name]
				if !ok || len(v) == 0 || slices.ContainsFunc(v, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
					t.Errorf("end-to-end %s = %v", sm.Name, v)
				}
			}
			rep := tracePass(ctx, w, 3, "")
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("traced pass: %d of %d checks failed: %v", rep.Failed, rep.Attempted, rep.Problems)
			}
			for _, sm := range spec.PerLayer {
				v, ok := rep.Metrics[sm.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v (present %v)", sm.Name, v, ok)
				}
			}
			for name := range rep.Metrics {
				if _, ok := layerUnits[name]; !ok {
					t.Errorf("per-layer %s has no unit", name)
				}
			}
			if got := rep.Metrics["trace.replayed_share"]; got != 1 {
				t.Errorf("trace.replayed_share = %v, want 1 at smoke scale", got)
			}
		})
	}
}

// TestTimingWrappersKeepBytes checks that the timing Store leaves the
// leased table unchanged, and that the timing BallSource leaves every
// trial's outputs and radii unchanged on the kernel and view paths.
func TestTimingWrappersKeepBytes(t *testing.T) {
	// A store that loses records starves the lease protocol; fail, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ws := smoke(t)
	leased := ws[slices.IndexFunc(ws, func(w workload) bool { return w.leased })]
	plain, _, err := leased.run(ctx, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &timedStore{}
	timed, _, err := leased.run(ctx, 5, func(s sweep.Store) sweep.Store { st.Store = s; return st })
	if err != nil {
		t.Fatal(err)
	}
	if timed != plain {
		t.Errorf("table through the timing store differs:\n%s\nwant\n%s", timed, plain)
	}
	if st.put.calls == 0 || st.list.calls == 0 {
		t.Errorf("timing store saw no traffic: %+v %+v", st.put, st.list)
	}

	for _, w := range ws {
		specs, err := w.sweeps(5)
		if err != nil {
			t.Fatal(err)
		}
		for k, spec := range specs {
			if spec.Exhaustive {
				continue
			}
			for _, n := range spec.Sizes {
				g, err := spec.Graph(n, rand.New(rand.NewSource(1)))
				if err != nil {
					t.Fatal(err)
				}
				var raw graph.BallSource
				if spec.Backend == sweep.BackendImplicit {
					raw = graph.NewImplicitBalls(g.(graph.Implicit))
				} else {
					raw = graph.NewBallAtlas(g, 0)
				}
				direct, wrapped := local.NewRunner(), local.NewRunner()
				direct.SetSource(raw)
				wrapped.SetSource(&timedSource{BallSource: raw})
				rng := rand.New(rand.NewSource(int64(n)))
				for trial := 0; trial < 3; trial++ {
					a := ids.Random(n, rng)
					alg := spec.Alg(n, a)
					want, err := direct.Run(g, a, alg)
					if err != nil {
						t.Fatal(err)
					}
					wantOut, wantRad := slices.Clone(want.Outputs), slices.Clone(want.Radii)
					got, err := wrapped.Run(g, a, alg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Outputs, wantOut) || !reflect.DeepEqual(got.Radii, wantRad) {
						t.Errorf("%s sweep %d n=%d trial %d: results differ through the timing source", w.name, k, n, trial)
					}
				}
			}
		}
	}
}

// TestCorruptGoldenFails checks that a wrong expected digest fails every
// table check, in the measured runs and in the traced pass alike.
func TestCorruptGoldenFails(t *testing.T) {
	ctx := context.Background()
	w := smoke(t)[0]
	bad := strings.Repeat("0", 64)
	m := newMeasured(bad)
	m.add(measureChild(ctx, w, goldenSeed), childRun{spawned: time.Now()}, 1)
	if m.attempted == 0 || m.failed != m.attempted {
		t.Errorf("measured: %d of %d checks failed, want all", m.failed, m.attempted)
	}
	rep := tracePass(ctx, w, goldenSeed, bad)
	if rep.Failed == 0 {
		t.Errorf("traced pass passed all %d checks against a corrupt digest", rep.Attempted)
	}
}

// TestGoldenCoversWorkloads checks the committed digests name exactly the
// workloads.
func TestGoldenCoversWorkloads(t *testing.T) {
	golden, err := loadGolden("../testdata/golden-seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(golden[w.name]) != 64 {
			t.Errorf("workload %s: golden digest %q", w.name, golden[w.name])
		}
	}
	if len(golden) != len(workloads) {
		t.Errorf("%d golden digests for %d workloads", len(golden), len(workloads))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4, method="inclusive") == [3.25, 5.5, 7.75]
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(vals); q1 != 3.25 || q3 != 7.75 {
		t.Errorf("quartiles = %v, %v; want 3.25, 7.75", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4, method="inclusive") == [1.5, 2.0, 2.5]
	if s := summarize("s", []float64{3, 1, 2}); s.Q1 != 1.5 || s.Median != 2 || s.Q3 != 2.5 {
		t.Errorf("summary = %+v", s)
	}
}

// TestCompareVerdicts checks -compare's rule on synthetic runs.
func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "decisions_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	run := func(commit string, rate float64, wall, dps []float64) *runFile {
		return &runFile{Env: env{Commit: commit}, Workloads: []workloadRun{{
			Name: "w", ErrorRate: rate,
			Metrics: map[string]summary{
				"wall_s":          summarize("s", wall),
				"decisions_per_s": summarize("1/s", dps),
			},
		}}}
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{0.7, 1.0, 1.3, 0.8, 1.2}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name                string
		base, cur           *runFile
		wall, dps, errorVer string
	}{
		{"same", run("a", 0, steady, steady), run("a", 0, steady, steady), same, same, same},
		{"worse", run("a", 0, steady, steady), run("a", 0, scale(steady, 1.2), scale(steady, 0.8)), worse, worse, same},
		{"better", run("a", 0, steady, steady), run("a", 0, scale(steady, 0.8), scale(steady, 1.2)), better, better, same},
		{"unresolved", run("a", 0, noisy, noisy), run("a", 0, scale(noisy, 1.05), noisy), unresolved, unresolved, same},
		{"beats every base run", run("a", 0, noisy, noisy), run("a", 0, scale(steady, 0.5), scale(steady, 2)), better, better, same},
		{"error rate rises", run("a", 0, steady, steady), run("a", 0.1, steady, steady), same, same, worse},
		{"overlapping runs are not better", run("a", 0, steady, steady), run("a", 0, []float64{0.97, 0.98, 0.985, 1.00, 1.02}, steady), same, same, same},
	}
	for _, c := range cases {
		rows, warnings := compareRuns(spec, c.base, c.cur)
		got := map[string]string{}
		for _, r := range rows {
			got[r.metric] = r.verdict
		}
		want := map[string]string{"wall_s": c.wall, "decisions_per_s": c.dps, "error_rate": c.errorVer}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: verdicts %v, want %v", c.name, got, want)
		}
		if len(warnings) != 0 {
			t.Errorf("%s: warnings %v", c.name, warnings)
		}
	}
	if _, warnings := compareRuns(spec, run("a", 0, steady, steady), run("b", 0, steady, steady)); len(warnings) != 1 {
		t.Errorf("differing commits: warnings %v, want one", warnings)
	}
}

// TestRunFileRoundTrip checks that -markdown and -compare read what a full
// run writes.
func TestRunFileRoundTrip(t *testing.T) {
	rf := &runFile{Env: currentEnv(), Seed: 1, Runs: 2, Workloads: []workloadRun{{
		Name: "w", Attempted: 4,
		Metrics: map[string]summary{"wall_s": summarize("s", []float64{1, 2})},
		Layers:  map[string]valueUnit{"local.run_s": {Value: 0.5, Unit: "s"}},
	}}}
	path := t.TempDir() + "/run.json"
	data, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runMarkdown(path, &out); err != nil {
		t.Fatal(err)
	}
	// statistics.quantiles([1, 2], n=4, method="inclusive") == [1.25, 1.5, 1.75]
	for _, want := range []string{"| wall_s | s | 1.5 [1.25, 1.75] |", "| local.run_s | s | 0.5 |", "| error_rate | ratio | 0 (0/4) |"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("markdown lacks %q:\n%s", want, out.String())
		}
	}
}
