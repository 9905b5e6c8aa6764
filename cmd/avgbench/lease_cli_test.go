package main

import (
	"context"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// TestMain lets this test binary impersonate the real avgbench: with
// AVGBENCH_BE_MAIN=1 it runs main() on its arguments and exits. The
// SIGKILL test below uses that to spawn a genuine executor process it can
// kill without mercy, instead of simulating death with context cancels.
func TestMain(m *testing.M) {
	if os.Getenv("AVGBENCH_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLeaseFlagValidation pins the leased-mode flag discipline.
func TestLeaseFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-e", "E6", "-lease"},                                         // no -store
		{"-e", "E6", "-store", dir},                                    // no schedule
		{"-e", "E6", "-store", dir, "-lease", "-shard", "0/2"},         // two schedules
		{"-e", "all", "-store", dir, "-lease"},                         // needs one experiment
		{"-e", "E6", "-worker", "w"},                                   // -worker without -store
		{"-e", "E6", "-grains", "4"},                                   // -grains without -store
		{"-e", "E6", "-store", dir, "-lease", "-worker", "bad worker"}, // not store-name-safe
		{"-e", "E6", "-store", dir, "-shard", "2/2"},                   // static index out of range
		{"-e", "E6", "-sizes", "zz", "-store", dir, "-lease"},          // bad sizes still fail fast
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestLeaseRunCLI: the in-process happy path — one -lease executor covers
// the space and a second invocation joining the finished run only finds
// duplicates, both printing the same table.
func TestLeaseRunCLI(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-e", "E6", "-sizes", "16,24", "-trials", "6", "-seed", "9", "-store", dir}
	if err := run(append(common, "-lease", "-worker", "first", "-grains", "4")); err != nil {
		t.Fatalf("lease run: %v", err)
	}
	if err := run(append(common, "-lease", "-worker", "second", "-grains", "4")); err != nil {
		t.Fatalf("joining a finished run: %v", err)
	}
	// The store's completions fold to the single-process bytes.
	e, err := experiments.Get("E6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Seed: 9, Sizes: []int{16, 24}, Trials: 6}
	want, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweep.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiments.MergeLeased(e, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if want.Render() != got.Render() {
		t.Errorf("leased CLI table differs from single process\nwant:\n%s\ngot:\n%s",
			want.Render(), got.Render())
	}
}

// TestLeaseSurvivesSIGKILL is the chaos harness's process-level leg: a real
// executor process is SIGKILLed mid-run — after it has durably committed at
// least one grain, before it could finish — and a rescuer started against
// the same store must adopt the corpse's lease, finish the space, and
// produce the single-process bytes. No cooperation from the victim: SIGKILL
// cannot be caught, so whatever the store holds at death is the recovery
// contract.
func TestLeaseSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	dir := t.TempDir()
	args := []string{"-e", "E2", "-sizes", "8192,16384", "-trials", "48", "-seed", "21",
		"-store", dir, "-lease"}

	victim := exec.Command(os.Args[0], append(args, "-worker", "victim", "-workers", "1")...)
	victim.Env = append(os.Environ(), "AVGBENCH_BE_MAIN=1")
	victim.Stdout = nil
	victim.Stderr = nil
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the first durable completion, then kill without warning.
	deadline := time.Now().Add(30 * time.Second)
	for countDoneObjects(t, dir) == 0 {
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatal("victim produced no completion records within 30s")
		}
		time.Sleep(500 * time.Microsecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Wait(); err == nil {
		// The whole run fit between our poll and the kill; the rescue below
		// still must reproduce the bytes, but say the kill landed late.
		t.Log("victim finished before SIGKILL landed; rescue degenerates to a duplicate join")
	}

	if err := run(append(args, "-worker", "rescuer")); err != nil {
		t.Fatalf("rescuer: %v", err)
	}

	e, err := experiments.Get("E2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Seed: 21, Sizes: []int{8192, 16384}, Trials: 48}
	want, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sweep.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := experiments.MergeLeased(e, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if want.Render() != got.Render() {
		t.Errorf("post-SIGKILL table differs from single process\nwant:\n%s\ngot:\n%s",
			want.Render(), got.Render())
	}
}

// countDoneObjects counts the durable per-grain completion records under a
// DirStore root, across all sweeps of the run.
func countDoneObjects(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(filepath.ToSlash(path), "/done/") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
