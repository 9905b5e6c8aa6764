// Command sweepmerge folds a leased run's per-grain completion records
// (avgbench -e <ID> -store DIR -lease, or the static -store DIR -shard i/m)
// into the experiment's final table without executing anything. The store
// is self-describing — each run's manifest names the experiment and config
// — so the merge needs only the directory. Once the run's trial space is
// covered, the merged table is byte-identical to the one a single
// `avgbench -e <ID>` process prints: the engine's aggregate merge is
// deterministic and tie-broken by trial index exactly like the in-process
// fold.
//
// Usage:
//
//	sweepmerge -store run/                     # the store's one leased run
//	sweepmerge -store run/ -run E6             # the store's one E6 run
//	sweepmerge -store run/ -run e6-1f2e…       # one run by its key (a directory under run/lease/)
//	sweepmerge -store run/ -csv                # machine-readable, like avgbench -csv
//	sweepmerge -store run/ -json               # metadata + table, like avgbench -json
//
// Incomplete runs fail with exit 2 (start or finish executors, then merge
// again); overlapping or corrupt records, and a manifest outside its run's
// directory, fail with exit 3 naming the offending record.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
		os.Exit(cli.Report(os.Stderr, "sweepmerge", err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweepmerge", flag.ContinueOnError)
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned text")
	asJSON := fs.Bool("json", false, "emit JSON (table plus metadata)")
	storeFlag := fs.String("store", "", "store directory holding the leased run to merge (required)")
	runFlag := fs.String("run", "", "experiment ID or run key (directory name under lease/) of the run to merge, when the store holds several")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asCSV && *asJSON {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	if *storeFlag == "" {
		return fmt.Errorf("-store is required: the directory the leased run's executors share")
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v; sweepmerge merges a leased run from -store", fs.Args())
	}
	e, tab, err := mergeStore(*storeFlag, *runFlag)
	if err != nil {
		return err
	}

	// Mirror avgbench's output formats exactly, so `diff` against a
	// single-process run is the equivalence check.
	switch {
	case *asJSON:
		out := []struct {
			ID    string             `json:"id"`
			Title string             `json:"title"`
			Claim string             `json:"claim"`
			Table *experiments.Table `json:"table"`
		}{{ID: e.ID, Title: e.Title, Claim: e.Claim, Table: tab}}
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

// mergeStore collects a leased run from a store directory. The store's
// manifests say what it holds; sel (an experiment ID or a run key) narrows
// the choice when executors for several runs shared one directory.
func mergeStore(dir, sel string) (experiments.Experiment, *experiments.Table, error) {
	var none experiments.Experiment
	st, err := sweep.NewDirStore(dir)
	if err != nil {
		return none, nil, err
	}
	runs, err := experiments.FindLeasedRuns(st)
	if err != nil {
		return none, nil, err
	}
	if sel != "" {
		matched := runs[:0]
		for _, r := range runs {
			if strings.EqualFold(r.Manifest.Experiment, sel) || r.Key() == sel {
				matched = append(matched, r)
			}
		}
		runs = matched
	}
	switch len(runs) {
	case 0:
		if sel != "" {
			return none, nil, fmt.Errorf("%s holds no leased run matching %q", dir, sel)
		}
		return none, nil, fmt.Errorf("%s holds no leased runs", dir)
	case 1:
	default:
		keys := make([]string, len(runs))
		for i, r := range runs {
			keys[i] = r.Key()
		}
		return none, nil, fmt.Errorf("%s holds %d leased runs (%s); pick one by key with -run", dir, len(runs), strings.Join(keys, ", "))
	}
	r := runs[0]
	e, err := experiments.Get(r.Manifest.Experiment)
	if err != nil {
		return none, nil, err
	}
	// The merge reads the records under the key the manifest's config
	// hashes to. A manifest in another run's directory would report that
	// key's absent records as an incomplete run forever; it is corrupt.
	if want := experiments.LeaseRunPrefix(e, r.Manifest.Config); want != r.Prefix {
		return none, nil, &sweep.DecodeError{
			Format: "experiments.leasemanifest",
			Reason: fmt.Sprintf("run %s holds the manifest of run %s", r.Key(), strings.TrimPrefix(want, "lease/")),
			Key:    r.Prefix + "/manifest",
		}
	}
	tab, err := experiments.MergeLeased(e, r.Manifest.Config, st)
	if err != nil {
		return none, nil, err
	}
	return e, tab, nil
}
