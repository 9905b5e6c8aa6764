package experiments

import (
	"context"
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// smallCfg keeps experiment runs fast in unit tests; the full sweeps run in
// the benchmark suite and cmd/avgbench.
func smallCfg() Config {
	return Config{Seed: 7, Sizes: []int{16, 32, 64}, Trials: 2}
}

// goldenTable returns the committed rendering of experiment id under
// smallCfg. After an intended table change, regenerate the files from the
// repository root (sed drops avgbench's two header lines and its trailing
// blank line):
//
//	for e in E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12; do
//	  go run ./cmd/avgbench -e $e -seed 7 -sizes 16,32,64 -trials 2 |
//	    sed '1,2d;$d' > internal/experiments/testdata/golden/$e.txt
//	done
func goldenTable(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d].ID = %s, want %s", i, all[i].ID, id)
		}
		e, err := Get(id)
		if err != nil {
			t.Errorf("Get(%s): %v", id, err)
		}
		if e.Title == "" || e.Claim == "" {
			t.Errorf("%s missing title or claim", id)
		}
		if e.Sweeps == nil || e.Tabulate == nil {
			t.Errorf("%s lacks Sweeps or Tabulate", id)
		}
	}
	if _, err := Get("E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestAllExperimentsRunSmall renders every experiment under smallCfg and
// diffs it against its committed golden table: any byte change to any
// table fails here.
func TestAllExperimentsRunSmall(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(context.Background(), smallCfg())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if got, want := tab.Render(), goldenTable(t, e.ID); got != want {
				t.Errorf("%s differs from its golden table\nwant:\n%s\ngot:\n%s", e.ID, want, got)
			}
		})
	}
}

func TestExperimentsDeterministicPerSeed(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E6"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := e.Run(context.Background(), smallCfg())
		if err != nil {
			t.Fatalf("%s run 1: %v", id, err)
		}
		t2, err := e.Run(context.Background(), smallCfg())
		if err != nil {
			t.Fatalf("%s run 2: %v", id, err)
		}
		if t1.Render() != t2.Render() {
			t.Errorf("%s not deterministic for a fixed seed", id)
		}
	}
}

// TestExperimentsDeterministicAcrossWorkers is the sharding guarantee
// surfaced at the table level: every experiment renders byte-identically
// whether its sweeps run on one worker or eight.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			seq := smallCfg()
			seq.Workers = 1
			par := smallCfg()
			par.Workers = 8
			t1, err := e.Run(context.Background(), seq)
			if err != nil {
				t.Fatalf("%s workers=1: %v", e.ID, err)
			}
			t2, err := e.Run(context.Background(), par)
			if err != nil {
				t.Fatalf("%s workers=8: %v", e.ID, err)
			}
			if r1, r2 := t1.Render(), t2.Render(); r1 != r2 {
				t.Errorf("%s table depends on the worker count:\nworkers=1:\n%s\nworkers=8:\n%s", e.ID, r1, r2)
			}
		})
	}
}

// TestE3UnsortedSizes regresses the out-of-range panics of size overrides:
// maxP must be the maximum, not the last entry, and a negative size is an
// error naming it.
func TestE3UnsortedSizes(t *testing.T) {
	e, err := Get("E3")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), Config{Seed: 1, Sizes: []int{64, 16}})
	if err != nil {
		t.Fatalf("descending sizes: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
	if _, err := e.Run(context.Background(), Config{Seed: 1, Sizes: []int{-5}}); err == nil || !strings.Contains(err.Error(), "-5") {
		t.Errorf("negative size: err = %v, want an error naming -5", err)
	}
}

// TestE5DuplicateSizes regresses the nil-report panic when the size sweep
// repeats a value: per-size slots are keyed by index, not by n.
func TestE5DuplicateSizes(t *testing.T) {
	e, err := Get("E5")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), Config{Seed: 1, Sizes: []int{16, 16}})
	if err != nil {
		t.Fatalf("duplicate sizes: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
}

// TestExperimentsCancellation cancels the context up front: every
// experiment must fail fast instead of computing its table, run plain or
// leased.
func TestExperimentsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		if _, err := e.Run(ctx, smallCfg()); err == nil {
			t.Errorf("%s ignored a cancelled context", e.ID)
		}
		if _, err := RunLeasedSweeps(ctx, e, smallCfg(), sweep.NewMemStore(), sweep.LeaseOptions{Worker: "w"}); err == nil {
			t.Errorf("%s leased run ignored a cancelled context", e.ID)
		}
	}
}

func TestE2ExactIdentity(t *testing.T) {
	// The flagship identity: the engine run on the reconstructed worst
	// permutation must achieve a(n-1) + floor(n/2) exactly; E2 reports it
	// in the "exact" column.
	e, err := Get("E2")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), Config{Seed: 1, Sizes: []int{16, 64, 256, 1024}, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	exactCol := -1
	for i, c := range tab.Columns {
		if c == "exact" {
			exactCol = i
		}
	}
	if exactCol < 0 {
		t.Fatal("no exact column in E2")
	}
	for _, row := range tab.Rows {
		if row[exactCol] != "true" {
			t.Errorf("E2 row %v: engine/theory mismatch", row)
		}
	}
}

// TestE10ExactVsSampled is the CI smoke of the exact-vs-Monte-Carlo
// agreement table: small sizes, reduced sampling, and the hard identities —
// worstGap >= 0 everywhere, full coverage closing the gap to zero.
func TestE10ExactVsSampled(t *testing.T) {
	e, err := Get("E10")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), Config{Seed: 3, Sizes: []int{5, 6}, Trials: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
	col := func(name string) int {
		for i, c := range tab.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("no %q column", name)
		return -1
	}
	gap := col("worstGap")
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[gap], "-") {
			t.Errorf("negative worstGap in row %v", row)
		}
	}
	// 120 sampled trials cover all 120 permutations of n=5 with high
	// multiplicity... but not necessarily every one; the gap identity is
	// what matters. With sizes beyond the cap the experiment must clamp,
	// not fail.
	tab2, err := e.Run(context.Background(), Config{Seed: 3, Sizes: []int{5, 4096}, Trials: 60})
	if err != nil {
		t.Fatalf("oversized size override: %v", err)
	}
	if len(tab2.Rows) != 1 {
		t.Fatalf("clamped run has %d rows, want 1", len(tab2.Rows))
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	tab.AddRow(ci(1), cf(2.5))
	tab.AddRow(cs("x"), cs("y"))
	tab.AddNote("note %d", 7)
	out := tab.Render()
	for _, want := range []string{"demo", "a", "bb", "2.500", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var sb strings.Builder
	if err := tab.WriteCSV(csv.NewWriter(&sb)); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.Contains(sb.String(), "a,bb") {
		t.Errorf("csv missing header: %q", sb.String())
	}
	lines := strings.Count(strings.TrimSpace(sb.String()), "\n") + 1
	if lines != 3 {
		t.Errorf("csv has %d lines, want 3", lines)
	}
}

// TestConfigKnobsReachEveryExperiment pins the perf-toggle contract:
// -nokernels reaches every experiment's sweeps and leaves the work an
// experiment does in Tabulate alone, so the bytes match the goldens.
func TestConfigKnobsReachEveryExperiment(t *testing.T) {
	ctx := context.Background()
	for _, id := range []string{"E2", "E10", "E5", "E8", "E11"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallCfg()
		cfg.NoKernels = true
		viaViews, err := e.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s -nokernels: %v", id, err)
		}
		if viaViews.Render() != goldenTable(t, id) {
			t.Errorf("%s: -nokernels changed the bytes", id)
		}
	}
}

// TestRunSweepsRejectsUnshardable: RunSweeps runs only whole, in-process
// sweeps. A static shard and a checkpoint path are both rejected, pointing
// at RunLeasedSweeps.
func TestRunSweepsRejectsUnshardable(t *testing.T) {
	e6, err := Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 1, Sizes: []int{16}, Trials: 2}
	for name, run := range map[string]func() error{
		"shard": func() error {
			_, err := RunSweeps(context.Background(), e6, cfg, sweep.Shard{Index: 0, Count: 2}, "")
			return err
		},
		"checkpoint": func() error {
			_, err := RunSweeps(context.Background(), e6, cfg, sweep.Shard{}, "e6.ckpt")
			return err
		},
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "RunLeasedSweeps") {
			t.Errorf("%s: err = %v, want a rejection naming RunLeasedSweeps", name, err)
		}
	}
}

// TestUnknownExperimentErrorListsIDs: the typed miss carries the whole
// registered menu in natural order.
func TestUnknownExperimentErrorListsIDs(t *testing.T) {
	_, err := Get("E99")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var ue *UnknownExperimentError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T is not *UnknownExperimentError", err)
	}
	if ue.ID != "E99" {
		t.Errorf("ID = %q", ue.ID)
	}
	for _, id := range []string{"E1", "E2", "E10"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %s", err, id)
		}
	}
	if want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}; len(ue.Known) != len(want) {
		t.Errorf("Known = %v, want %v", ue.Known, want)
	}
}
