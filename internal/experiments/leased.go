package experiments

// Leased runs: the experiment-level face of the sweep engine's grain
// claims (internal/sweep/lease.go), and the one way to split, resume or
// share an experiment run. Any number of executors — started at any time,
// in any process sharing the store — claim free grains of the uncovered
// trial space one at a time and re-execute grains a slow or dead peer
// claimed but did not complete, all while the merged table stays
// byte-identical to a single-process run. A killed run resumes by
// starting an executor again; LeaseOptions.Static gives the fixed i-of-m
// split instead.
//
// The store layout namespaces one run per (experiment, normalized config):
//
//	lease/<exp>-<confighash>/manifest – experiment id + full config
//	lease/<exp>-<confighash>/s<k>/…   – sweep k's lease run (plan, claim
//	                                    markers, per-grain completions)
//
// The manifest makes a store self-describing: a merger (cmd/sweepmerge
// -store) discovers the run, recovers the config, and tabulates without
// being told anything beyond the directory.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"

	"repro/internal/sweep"
)

// normalizedConfig strips the fields that cannot change result bytes —
// worker count, the kernel toggle and the ball-sourcing backend — so
// executors launched with different parallelism or backends still
// cooperate on one run. StreamIDs stays: it selects a different
// permutation family and thus different bytes.
func normalizedConfig(cfg Config) Config {
	cfg.Workers = 0
	cfg.NoKernels = false
	cfg.Backend = ""
	return cfg
}

// formatLeaseManifest tags a leased run's manifest record.
const formatLeaseManifest = "experiments.leasemanifest"

// LeaseManifest identifies a leased run: which experiment, which config.
// The config is stored in full (a merger needs it to Tabulate), compared
// normalized (parallelism knobs cannot change result bytes).
type LeaseManifest struct {
	Experiment string `json:"experiment"`
	Config     Config `json:"config"`
}

// LeaseRunPrefix is the store namespace of an (experiment, config) leased
// run: "lease/" plus the run key — the experiment id and a short hash of
// the result-affecting config fields. Executors whose configs differ only
// in parallelism or perf toggles share a run; runs of one experiment under
// different seeds, sizes or trials never share records.
func LeaseRunPrefix(e Experiment, cfg Config) string {
	return "lease/" + runKey(e, cfg)
}

// runKey is the normalized-config identity LeaseRunPrefix namespaces.
func runKey(e Experiment, cfg Config) string {
	raw, err := json.Marshal(normalizedConfig(cfg))
	if err != nil {
		// Config is plain scalars; Marshal cannot fail on it.
		panic(fmt.Sprintf("experiments: marshal config: %v", err))
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%s-%016x", strings.ToLower(e.ID), h.Sum64())
}

func manifestKey(prefix string) string { return prefix + "/manifest" }

func sweepPrefix(prefix string, k int) string { return fmt.Sprintf("%s/s%d", prefix, k) }

// ensureManifest writes the run's manifest, or validates an existing one
// against this executor's identity. A torn manifest is overwritten.
func ensureManifest(st sweep.Store, prefix string, e Experiment, cfg Config) error {
	key := manifestKey(prefix)
	if data, err := st.Get(key); err == nil {
		mf := &LeaseManifest{}
		if derr := sweep.DecodeFile(bytes.NewReader(data), formatLeaseManifest, mf); derr == nil {
			if mf.Experiment != e.ID ||
				!reflect.DeepEqual(normalizedConfig(mf.Config), normalizedConfig(cfg)) {
				return fmt.Errorf("experiments: lease run %q belongs to a different experiment or config", prefix)
			}
			return nil
		}
	}
	var buf bytes.Buffer
	if err := sweep.EncodeFile(&buf, formatLeaseManifest, &LeaseManifest{Experiment: e.ID, Config: cfg}); err != nil {
		return err
	}
	if err := st.Put(key, buf.Bytes()); err != nil {
		return fmt.Errorf("experiments: write lease manifest: %w", err)
	}
	return nil
}

// RunLeasedSweeps executes every sweep of an experiment as one lease
// executor over the store, sweep by sweep, and returns the summed
// participation stats. opts.Prefix is ignored — the run prefix is derived
// from the experiment and config (LeaseRunPrefix) so independently started
// executors land in the same namespace by construction. The call returns
// when every sweep's target is covered; it does NOT return results —
// MergeLeased (or cmd/sweepmerge -store) collects them from the store. An
// experiment without sweeps (E3, E8) only writes the manifest, and the
// merge computes its whole table; like Run, a cancelled context fails
// before any work.
func RunLeasedSweeps(ctx context.Context, e Experiment, cfg Config, st sweep.Store, opts sweep.LeaseOptions) (sweep.LeaseStats, error) {
	var total sweep.LeaseStats
	if err := ctx.Err(); err != nil {
		return total, fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	specs, err := expandSweeps(e, cfg)
	if err != nil {
		return total, fmt.Errorf("experiments: %s sweeps: %w", e.ID, err)
	}
	prefix := LeaseRunPrefix(e, cfg)
	if err := ensureManifest(st, prefix, e, cfg); err != nil {
		return total, err
	}
	for k := range specs {
		o := opts
		o.Prefix = sweepPrefix(prefix, k)
		stats, err := sweep.RunLeased(ctx, specs[k], st, o)
		total.Add(stats)
		if err != nil {
			return total, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
	}
	return total, nil
}

// MergeLeased collects a leased run's per-grain completion records into
// the experiment's final table — byte-identical to a single-process run.
// Incomplete runs fail with sweep's typed *IncompleteError (still
// running? worker died?), double-counting with *OverlapError.
func MergeLeased(e Experiment, cfg Config, st sweep.Store) (*Table, error) {
	specs, err := expandSweeps(e, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s sweeps: %w", e.ID, err)
	}
	prefix := LeaseRunPrefix(e, cfg)
	results := make([]*sweep.Result, len(specs))
	for k := range specs {
		plan, err := sweep.PlanOf(specs[k])
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
		res, err := sweep.CollectLeased(st, sweepPrefix(prefix, k), plan)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sweep %d: %w", e.ID, k, err)
		}
		results[k] = res
	}
	return e.Tabulate(cfg, results)
}

// LeasedRun is one run a store holds: its manifest plus the store prefix
// its records live under (LeaseRunPrefix of the manifest's experiment and
// config).
type LeasedRun struct {
	Manifest LeaseManifest
	Prefix   string
}

// Key returns the run key: the directory name under "lease/" that tells
// runs of one experiment apart.
func (r LeasedRun) Key() string { return strings.TrimPrefix(r.Prefix, "lease/") }

// FindLeasedRuns lists the leased runs a store holds, by reading every
// manifest under "lease/". Torn or foreign manifests are skipped.
func FindLeasedRuns(st sweep.Store) ([]LeasedRun, error) {
	names, err := st.List("lease/")
	if err != nil {
		return nil, err
	}
	var runs []LeasedRun
	for _, name := range names {
		prefix, ok := strings.CutSuffix(name, "/manifest")
		if !ok {
			continue
		}
		data, err := st.Get(name)
		if err != nil {
			continue
		}
		mf := LeaseManifest{}
		if derr := sweep.DecodeFile(bytes.NewReader(data), formatLeaseManifest, &mf); derr != nil {
			continue
		}
		runs = append(runs, LeasedRun{Manifest: mf, Prefix: prefix})
	}
	return runs, nil
}
