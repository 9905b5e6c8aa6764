package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// leaseE6 runs E6 at seed into the store directory the way
// `avgbench -e E6 -store dir` does: dynamically when static is zero, as
// one static slice otherwise.
func leaseE6(t *testing.T, dir string, seed int64, static sweep.Shard) experiments.Config {
	t.Helper()
	e, err := experiments.Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweep.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Seed: seed, Sizes: []int{16, 24}, Trials: 6}
	opts := sweep.LeaseOptions{Worker: "w", GrainsPerSize: 4, Static: static}
	if _, err := experiments.RunLeasedSweeps(context.Background(), e, cfg, st, opts); err != nil {
		t.Fatalf("lease E6 seed %d: %v", seed, err)
	}
	return cfg
}

func TestMergeRejectsMissingAndBadInput(t *testing.T) {
	dir := t.TempDir()
	if err := run(nil); err == nil {
		t.Error("no -store accepted")
	}
	if err := run([]string{"-csv", "-json", "-store", dir}); err == nil {
		t.Error("-csv with -json accepted")
	}
	if err := run([]string{"-store", dir, "s0.json"}); err == nil {
		t.Error("positional shard file accepted")
	}
	if err := run([]string{"-store", dir}); err == nil || !strings.Contains(err.Error(), "no leased runs") {
		t.Errorf("empty store: err = %v, want no leased runs", err)
	}
	cfg := leaseE6(t, dir, 1, sweep.Shard{})
	if err := run([]string{"-store", dir, "-run", "E2"}); err == nil {
		t.Error("-run naming an absent experiment accepted")
	}
	manifest := filepath.Join(dir, "lease", "garbage", "manifest")
	if err := os.MkdirAll(filepath.Dir(manifest), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, []byte("{corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-store", dir}); err != nil {
		t.Errorf("torn foreign manifest should be skipped: %v", err)
	}

	// A run directory whose manifest keys another run is corrupt (exit 3),
	// not an incomplete run of the key its config hashes to (exit 2).
	e, err := experiments.Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	key := strings.TrimPrefix(experiments.LeaseRunPrefix(e, cfg), "lease/")
	const moved = "e6-0000000000000000"
	if err := os.Rename(filepath.Join(dir, "lease", key), filepath.Join(dir, "lease", moved)); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-store", dir})
	var dec *sweep.DecodeError
	if !errors.As(err, &dec) || dec.Key != "lease/"+moved+"/manifest" {
		t.Fatalf("manifest under %s: err = %v, want a *sweep.DecodeError keyed at its manifest", moved, err)
	}
	for _, k := range []string{key, moved} {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("error %q does not name run %s", err, k)
		}
	}
	if code := cli.Report(io.Discard, "sweepmerge", err); code != cli.ExitCorrupt {
		t.Errorf("exit code %d, want %d", code, cli.ExitCorrupt)
	}
}

// TestMergeShardSet: a store filled by static shards merges once every
// slice ran, in every output format, and not before.
func TestMergeShardSet(t *testing.T) {
	dir := t.TempDir()
	leaseE6(t, dir, 4, sweep.Shard{Index: 0, Count: 2})
	if err := run([]string{"-store", dir}); err == nil {
		t.Error("incomplete shard set accepted")
	}
	leaseE6(t, dir, 4, sweep.Shard{Index: 1, Count: 2})
	for _, args := range [][]string{{"-store", dir}, {"-store", dir, "-csv"}, {"-store", dir, "-json"}} {
		if err := run(args); err != nil {
			t.Fatalf("merge %v: %v", args, err)
		}
	}
}

// TestMergeStorePicksRunByKey: two runs of one experiment at different
// seeds share a store. -run with the experiment ID is ambiguous and the
// error lists the run keys; -run with a key merges exactly that run.
func TestMergeStorePicksRunByKey(t *testing.T) {
	dir := t.TempDir()
	cfgs := []experiments.Config{leaseE6(t, dir, 1, sweep.Shard{}), leaseE6(t, dir, 2, sweep.Shard{})}
	e, err := experiments.Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = strings.TrimPrefix(experiments.LeaseRunPrefix(e, cfg), "lease/")
	}

	err = run([]string{"-store", dir, "-run", "E6"})
	if err == nil {
		t.Fatal("ambiguous -run E6 accepted")
	}
	for _, k := range keys {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("ambiguity error %q does not list run key %s", err, k)
		}
	}

	for i, cfg := range cfgs {
		want, err := e.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := mergeStore(dir, keys[i])
		if err != nil {
			t.Fatalf("-run %s: %v", keys[i], err)
		}
		if got.Render() != want.Render() {
			t.Errorf("-run %s merged the wrong run\nwant:\n%s\ngot:\n%s", keys[i], want.Render(), got.Render())
		}
	}
}
