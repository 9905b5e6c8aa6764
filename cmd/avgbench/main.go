// Command avgbench regenerates the paper's experiment tables (E1..E12, see
// EXPERIMENTS.md for the index). Every experiment runs on the sharded sweep
// engine (internal/sweep), so full-size tables use all cores; equal seeds
// emit identical tables at any worker count.
//
// Usage:
//
//	avgbench -e E2                  # one experiment, default sweep
//	avgbench -e all -seed 7         # everything, reproducibly
//	avgbench -e E4 -sizes 64,1024,65536 -trials 3
//	avgbench -e E10 -sizes 8,9,10   # exact n! enumeration vs sampling
//	avgbench -e E6 -workers 4       # bound the worker pool
//	avgbench -e all -timeout 30s    # give up (with an error) after 30s
//	avgbench -e E3 -csv             # machine-readable output
//	avgbench -e all -json          	# machine-readable output, with metadata
//	avgbench -e E6 -nokernels       # every vertex on the ball-builder view path (A/B profiling); identical tables
//	avgbench -e E11 -sizes 10000000 # kernels over closed-form balls: O(workers) memory at n=10^7
//	avgbench -e E10 -sizes 13,14 -quotient   # symmetry-quotient enumeration: bit-identical tables, n!/2n of the work
//	avgbench -e E12                      # quotient vs full n! fold, diffed field by field
//	avgbench -e E6 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Distributed runs of any experiment are leased over a shared store
// directory: start any number of executors against one store, at any
// time; each claims free grains of the trial space one at a time, and
// re-executes grains a slow or dead peer claimed but did not complete once
// it has nothing else to do. Every executor that returns prints the same
// bytes. A killed run resumes by running the executor again — the store's
// completion records are its checkpoint:
//
//	avgbench -e E6 -store run/ -lease          # executor 1
//	avgbench -e E6 -store run/ -lease          # executor 2, started later
//	sweepmerge -store run/                     # or merge without executing
//	avgbench -e E6 -store run/ -shard 0/2      # static i-of-m schedule (one slice of the grains)
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		// Typed failures exit distinctly: 2 = incomplete run (recoverable,
		// finish the executors and retry), 3 = corrupt data (inspect the
		// named record), 1 = anything else.
		os.Exit(cli.Report(os.Stderr, "avgbench", err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("avgbench", flag.ContinueOnError)
	expID := fs.String("e", "all", "experiment ID (E1..E12) or 'all'")
	seed := fs.Int64("seed", 1, "random seed (equal seeds reproduce tables)")
	sizesFlag := fs.String("sizes", "", "comma-separated n sweep override")
	trials := fs.Int("trials", 0, "permutations sampled per size (0 = default)")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = all cores)")
	timeout := fs.Duration("timeout", 0, "abort after this long (0 = no limit)")
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned text")
	asJSON := fs.Bool("json", false, "emit JSON (tables plus metadata)")
	list := fs.Bool("list", false, "list experiments and exit")
	noKernels := fs.Bool("nokernels", false, "run every vertex on the ball-builder view path instead of the flat decision kernels (identical tables; the kernels' oracle and A/B toggle)")
	quotient := fs.Bool("quotient", false, "enumerate exhaustive sweeps over canonical orbit representatives only (symmetric families; bit-identical tables, n!/|G| of the work, lifts E10's size cap to 14)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the runs to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file after the runs")
	shardFlag := fs.String("shard", "", "static lease schedule: execute only slice I/M (0-based, e.g. 0/2) of the run in -store; merge with sweepmerge -store")
	storeFlag := fs.String("store", "", "shared store directory for a leased run; executors pointing at the same store cooperate on one experiment, and rerunning resumes it (with -lease or -shard)")
	leaseFlag := fs.Bool("lease", false, "join the store's leased run: claim free grains of the trial space, re-execute grains stalled peers left, print the merged table when the space is covered; requires -store")
	workerFlag := fs.String("worker", "", "this executor's id in the leased run (default host-pid)")
	grainsFlag := fs.Int("grains", 0, "grains each size's trial space is quantized into for leasing (0 = engine default; all executors of a run must agree)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%s  %s\n    %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}
	if *asCSV && *asJSON {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	// A negative count would otherwise run silently as the default (and a
	// negative -trials would still enter the lease run key).
	if *trials < 0 || *workers < 0 || *grainsFlag < 0 {
		return fmt.Errorf("-trials, -workers and -grains take 0 (the default) or a positive count")
	}

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Workers: *workers,
		NoKernels: *noKernels, Quotient: *quotient}
	if *sizesFlag != "" {
		for _, part := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("parse -sizes: %w", err)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}

	var selected []experiments.Experiment
	if strings.EqualFold(*expID, "all") {
		selected = experiments.All()
	} else {
		// Unknown IDs fail here, before any sweep starts, with the typed
		// error listing every registered experiment.
		e, err := experiments.Get(strings.ToUpper(*expID))
		if err != nil {
			return err
		}
		selected = []experiments.Experiment{e}
	}

	// Leased-mode flag discipline: the store is the one way to split or
	// resume a run — progress lives in its per-grain completion records and
	// sweepmerge -store collects from it directly.
	if *leaseFlag && *storeFlag == "" {
		return fmt.Errorf("-lease needs -store, the directory the executors share")
	}
	if *shardFlag != "" && *storeFlag == "" {
		return fmt.Errorf("-shard needs -store, the directory the static executors share")
	}
	if *storeFlag == "" && (*workerFlag != "" || *grainsFlag != 0) {
		return fmt.Errorf("-worker/-grains only make sense with -store")
	}
	if *storeFlag != "" {
		if len(selected) != 1 {
			return fmt.Errorf("-store needs a single -e experiment, not %q", *expID)
		}
		if *leaseFlag == (*shardFlag != "") {
			return fmt.Errorf("-store needs exactly one schedule: -lease (dynamic claims) or -shard I/M (static)")
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Profiling hooks: hot-path regressions should be diagnosable from a
	// released binary without editing code.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("create -memprofile: %w", err)
		}
		defer func() {
			// Snapshot after the runs, with the dust settled, so the
			// profile reflects retained allocations.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "avgbench: write heap profile:", err)
			}
			f.Close()
		}()
	}

	// jsonTable pairs an experiment's metadata with its rendered table for
	// the machine-readable output mode.
	type jsonTable struct {
		ID    string             `json:"id"`
		Title string             `json:"title"`
		Claim string             `json:"claim"`
		Table *experiments.Table `json:"table"`
	}

	// Leased mode: join (or start) the store's run for this experiment.
	// Dynamic executors (-lease) return only once the whole trial space is
	// covered, so they can merge and print the final table themselves;
	// static ones (-shard I/M) exit after their own slice and leave the
	// merge to sweepmerge -store.
	if *storeFlag != "" {
		st, err := sweep.NewDirStore(*storeFlag)
		if err != nil {
			return err
		}
		opts := sweep.LeaseOptions{Worker: *workerFlag, GrainsPerSize: *grainsFlag}
		if opts.Worker == "" {
			opts.Worker = defaultWorker()
		}
		if *shardFlag != "" {
			shard, err := parseShard(*shardFlag)
			if err != nil {
				return err
			}
			opts.Static = shard
		}
		e := selected[0]
		stats, err := experiments.RunLeasedSweeps(ctx, e, cfg, st, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "avgbench: %s leased run in %s as %s: %d grains (%d duplicate), %d claims, %d adopted, %d speculated\n",
			e.ID, *storeFlag, opts.Worker, stats.Grains, stats.Duplicates, stats.Claims, stats.Adopted, stats.Speculated)
		if *shardFlag != "" {
			// This executor only owes its own slice; the run may still be
			// incomplete until every static peer has finished.
			fmt.Fprintf(os.Stderr, "avgbench: merge with: sweepmerge -store %s\n", *storeFlag)
			return nil
		}
		tab, err := experiments.MergeLeased(e, cfg, st)
		if err != nil {
			return err
		}
		switch {
		case *asJSON:
			out := []jsonTable{{ID: e.ID, Title: e.Title, Claim: e.Claim, Table: tab}}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(out)
		case *asCSV:
			return tab.WriteCSV(csv.NewWriter(os.Stdout))
		default:
			fmt.Printf("== %s: %s\n   claim: %s\n", e.ID, e.Title, e.Claim)
			fmt.Println(tab.Render())
		}
		return nil
	}

	var jsonOut []jsonTable

	for _, e := range selected {
		if !*asJSON {
			fmt.Printf("== %s: %s\n   claim: %s\n", e.ID, e.Title, e.Claim)
		}
		tab, err := e.Run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch {
		case *asJSON:
			jsonOut = append(jsonOut, jsonTable{ID: e.ID, Title: e.Title, Claim: e.Claim, Table: tab})
		case *asCSV:
			if err := tab.WriteCSV(csv.NewWriter(os.Stdout)); err != nil {
				return err
			}
		default:
			fmt.Println(tab.Render())
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonOut)
	}
	return nil
}

// defaultWorker derives a store-name-safe executor id from the host name
// and pid — unique enough for executors that share a store the intended
// way (one per process), and self-describing in the store's claim markers.
func defaultWorker() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '-'
	}, host)
	return fmt.Sprintf("%s-%d", safe, os.Getpid())
}

// parseShard parses an "I/M" flag value (0-based index I of M shards).
func parseShard(s string) (sweep.Shard, error) {
	is, ms, ok := strings.Cut(s, "/")
	if !ok {
		return sweep.Shard{}, fmt.Errorf("parse -shard %q: want I/M, e.g. 0/2", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(is))
	if err != nil {
		return sweep.Shard{}, fmt.Errorf("parse -shard index: %w", err)
	}
	count, err := strconv.Atoi(strings.TrimSpace(ms))
	if err != nil {
		return sweep.Shard{}, fmt.Errorf("parse -shard count: %w", err)
	}
	if count < 1 || idx < 0 || idx >= count {
		return sweep.Shard{}, fmt.Errorf("-shard %q out of range: need 0 <= I < M", s)
	}
	return sweep.Shard{Index: idx, Count: count}, nil
}
