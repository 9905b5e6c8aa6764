package main

import (
	"context"
	"runtime"
	"syscall"
	"time"
)

// iteration is one timed, untraced execution of a workload.
type iteration struct {
	WallS float64 `json:"wall_s"`
	// CPUS is the process's user+sys CPU over the iteration.
	CPUS float64 `json:"cpu_s"`
	// AllocMB is the heap allocated over the iteration (TotalAlloc delta).
	AllocMB float64 `json:"alloc_mb"`
	Digest  string  `json:"digest,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// warmRuns is the number of warm iterations a measuring child runs after
// its cold one. The first warm iteration still collects the cold one's
// garbage and grows the heap, so a single warm iteration is not yet steady.
const warmRuns = 3

// childReport is what one measuring child process prints: a cold
// iteration in the fresh process, then warm ones.
type childReport struct {
	// ReadyNS is the wall clock (Unix ns) at which the child, past runtime
	// and package initialisation and flag parsing, began its cold
	// iteration.
	ReadyNS int64       `json:"ready_ns"`
	Cold    iteration   `json:"cold"`
	Warm    []iteration `json:"warm"`
	// PlainDigest is, for the leased workload, the digest of an untimed
	// plain run of the same config, which the leased table must equal.
	PlainDigest string `json:"plain_digest,omitempty"`
	PlainErr    string `json:"plain_err,omitempty"`
}

// measureChild runs w at seed in this process: cold, then warmRuns times
// warm.
func measureChild(ctx context.Context, w workload, seed int64) childReport {
	rep := childReport{ReadyNS: time.Now().UnixNano()}
	rep.Cold = timeIteration(ctx, w, seed)
	for range warmRuns {
		rep.Warm = append(rep.Warm, timeIteration(ctx, w, seed))
	}
	if w.leased {
		plain := w
		plain.leased = false
		table, _, err := plain.run(ctx, seed, nil)
		if err != nil {
			rep.PlainErr = err.Error()
		}
		rep.PlainDigest = digest(table)
	}
	return rep
}

// timeIteration runs one iteration and measures its wall time, CPU time
// and allocation.
func timeIteration(ctx context.Context, w workload, seed int64) iteration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	table, _, err := w.run(ctx, seed, nil)
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	it := iteration{
		WallS:   wall.Seconds(),
		CPUS:    cpu1 - cpu0,
		AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
	}
	if err != nil {
		it.Err = err.Error()
	} else {
		it.Digest = digest(table)
	}
	return it
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) fails only on a bad pointer, which this is not.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
