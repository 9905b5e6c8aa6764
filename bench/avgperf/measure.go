package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names a run prints, and the units, directions and bounds -compare applies.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// loadGolden reads the committed table digests, keyed by workload.
func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return golden, nil
}

// goldenSeed is the seed the committed digests were taken at.
const goldenSeed = 1

// wantDigest is the digest w's table must have at seed: the committed one
// at goldenSeed, else "" (every table of a run must then agree).
func wantDigest(golden map[string]string, w workload, seed int64) (string, error) {
	if seed != goldenSeed {
		return "", nil
	}
	d, ok := golden[w.name]
	if !ok {
		return "", fmt.Errorf("no golden digest for workload %s", w.name)
	}
	return d, nil
}

// e2eUnits gives the unit of every end-to-end metric.
var e2eUnits = map[string]string{
	"decisions_per_s": "1/s",
	"wall_s":          "s",
	"setup_s":         "s",
	"cpu_s":           "s",
	"peak_rss_mb":     "MiB",
	"alloc_mb":        "MiB",
}

// measured is what the measuring children of one workload gave: samples of
// every end-to-end metric, and the output checks.
type measured struct {
	checker
	samples map[string][]float64
	want    string
}

func newMeasured(want string) *measured {
	return &measured{samples: map[string][]float64{}, want: want}
}

// childRun is what the parent observes of one child process.
type childRun struct {
	spawned time.Time
	rssMB   float64
}

// add folds one child's report into the samples. Every iteration is an
// attempt; it fails on an error or when its table digest differs from the
// expected one (the first digest seen, when none is committed).
func (m *measured) add(rep childReport, ch childRun, decisions int64) {
	ok := true
	for _, it := range append([]iteration{rep.Cold}, rep.Warm...) {
		if it.Err == "" && m.want == "" {
			m.want = it.Digest
		}
		m.check(it.Err == "" && it.Digest == m.want, "table: error %q, digest %s, want %s", it.Err, it.Digest, m.want)
		ok = ok && it.Err == ""
	}
	if rep.PlainDigest != "" || rep.PlainErr != "" {
		m.check(rep.PlainErr == "" && rep.PlainDigest == m.want, "plain table: error %q, digest %s, want %s", rep.PlainErr, rep.PlainDigest, m.want)
	}
	if !ok || len(rep.Warm) == 0 {
		return
	}
	warm := func(f func(iteration) float64) []float64 {
		v := make([]float64, len(rep.Warm))
		for i, it := range rep.Warm {
			v[i] = f(it)
		}
		return v
	}
	// Other load on the machine only ever adds time, so a child's fastest
	// warm iteration is its least disturbed one.
	wall := slices.Min(warm(func(it iteration) float64 { return it.WallS }))
	cpu := slices.Min(warm(func(it iteration) float64 { return it.CPUS }))
	alloc := medianOf(warm(func(it iteration) float64 { return it.AllocMB }))
	// Set-up is everything a fresh process does before it runs warm: exec
	// and initialisation up to the ready mark, then the cold iteration,
	// which fills the atlas cache and grows the heap. The cold iteration's
	// excess over a warm one alone is too small against the iteration
	// noise on some workloads to be a steady number.
	ready := time.Unix(0, rep.ReadyNS).Sub(ch.spawned).Seconds()
	for name, v := range map[string]float64{
		"decisions_per_s": float64(decisions) / wall,
		"wall_s":          rep.Cold.WallS,
		"setup_s":         ready + rep.Cold.WallS,
		"cpu_s":           cpu,
		"peak_rss_mb":     ch.rssMB,
		"alloc_mb":        alloc,
	} {
		m.samples[name] = append(m.samples[name], v)
	}
}

// measureWorkload runs w at seed in fresh child processes, one after
// another: at least minRuns, and more until the children have taken
// seconds of wall time.
func measureWorkload(ctx context.Context, w workload, seed int64, minRuns int, seconds time.Duration, want string) (*measured, error) {
	decisions, err := w.decisions(seed)
	if err != nil {
		return nil, err
	}
	m := newMeasured(want)
	start := time.Now()
	for runs := 0; runs < minRuns || time.Since(start) < seconds; runs++ {
		var rep childReport
		ch, err := spawnChild(ctx, &rep, "-child", "measure", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		if err != nil {
			return nil, err
		}
		m.add(rep, ch, decisions)
	}
	return m, nil
}

// traceWorkload runs the traced pass of w at seed in a fresh child process.
func traceWorkload(ctx context.Context, w workload, seed int64, want string) (traceReport, error) {
	var rep traceReport
	_, err := spawnChild(ctx, &rep, "-child", "trace", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-want", want)
	return rep, err
}

// spawnChild runs this program again as a fresh process with GOMAXPROCS
// set to the sweep worker count, waits for it, and decodes the JSON report
// it prints into out.
func spawnChild(ctx context.Context, out any, args ...string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", sweepWorkers))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	ch := childRun{spawned: time.Now()}
	if err := cmd.Run(); err != nil {
		return ch, fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		ch.rssMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return ch, fmt.Errorf("child %s: report: %w", strings.Join(args, " "), err)
	}
	return ch, nil
}

// resultLine is the one-line result of a single-workload run.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the named metrics from values, failing on any that is
// missing.
func pick(names []specMetric, values func(string) (float64, bool)) (map[string]valueUnit, error) {
	out := make(map[string]valueUnit, len(names))
	for _, m := range names {
		v, ok := values(m.Name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = valueUnit{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// env describes where a run was measured; -compare warns when two runs'
// environments differ.
type env struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// commit is the source commit, set at link time by bench/run.sh.
var commit = "unknown"

func currentEnv() env {
	e := env{Go: runtime.Version(), CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: sweepWorkers, Commit: commit}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// runFile is the result of a full run: every workload, several measured
// runs each, plus the traced pass.
type runFile struct {
	Env       env           `json:"env"`
	Seed      int64         `json:"seed"`
	Runs      int           `json:"runs"`
	Workloads []workloadRun `json:"workloads"`
}

type workloadRun struct {
	Name      string               `json:"name"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	ErrorRate float64              `json:"error_rate"`
	Problems  []string             `json:"problems,omitempty"`
	Metrics   map[string]summary   `json:"metrics"`
	Layers    map[string]valueUnit `json:"layers"`
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &runFile{}
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}
