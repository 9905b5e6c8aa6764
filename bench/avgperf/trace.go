package main

// The traced pass. It is separate from the measured runs, whose numbers are
// always taken untraced. It times the engine itself through public calls
// (RunSweeps at 1 and 2 workers, Tabulate, the result codec, a leased run
// over a timing Store), then replays the workload's sweeps once, trial by
// trial, timing each layer call from outside: the ball source through a
// timing graph.BallSource, the identifier draw, local.Runner.Run and the
// problem's Verify. The per-trial fold is unexported and cannot be timed
// from here; it stays inside sweep.run_*.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/sweep"
)

const (
	// quotientBlock is the representatives per replay span on exhaustive
	// sweeps.
	quotientBlock = 4096
	// maxReplayReps caps the representatives replayed per exhaustive size;
	// a larger enumeration replays this prefix, and trace.replayed_share
	// says how much of the work the replay covered.
	maxReplayReps = 1 << 22
	// allocRuns is how many Run calls per size the allocation count covers.
	allocRuns = 20
)

// layerUnits gives the unit of every per-layer metric the traced pass can
// report. Metrics in a layer a workload does not exercise are reported as
// 0 when they are counts or ratios, and omitted when they are times.
var layerUnits = map[string]string{
	"graph.ensure_calls":          "count",
	"graph.ensure_s":              "s",
	"graph.ensure_ns":             "ns",
	"graph.ensure_share":          "ratio",
	"graph.fallback_vertices":     "count",
	"graph.fallback_share":        "ratio",
	"graph.atlas_mb":              "MiB",
	"graph.atlas_exhausted_sizes": "count",
	"ids.draw_calls":              "count",
	"ids.draw_s":                  "s",
	"ids.draw_ns_per_vertex":      "ns",
	"ids.quotient_setup_s":        "s",
	"ids.quotient_steps_per_rep":  "ratio",
	"local.run_calls":             "count",
	"local.run_s":                 "s",
	"local.self_s":                "s",
	"local.ns_per_decision":       "ns",
	"local.allocs_per_run":        "count",
	"problems.verify_calls":       "count",
	"problems.verify_s":           "s",
	"problems.verify_share":       "ratio",
	"sweep.run_w1_s":              "s",
	"sweep.run_w2_s":              "s",
	"sweep.speedup_w2":            "ratio",
	"sweep.codec_s":               "s",
	"sweep.codec_bytes":           "bytes",
	"sweep.store.put_calls":       "count",
	"sweep.store.get_calls":       "count",
	"sweep.store.list_calls":      "count",
	"sweep.store.put_s":           "s",
	"sweep.store.get_s":           "s",
	"sweep.store.list_s":          "s",
	"sweep.store.list_names":      "count",
	"sweep.store.bytes_put":       "bytes",
	"sweep.store.share":           "ratio",
	"sweep.lease.grains":          "count",
	"sweep.lease.duplicates":      "count",
	"sweep.lease.claims":          "count",
	"sweep.lease.steals":          "count",
	"sweep.lease.adopted":         "count",
	"sweep.lease.speculated":      "count",
	"sweep.lease.useful_ratio":    "ratio",
	"sweep.lease.overhead_ratio":  "ratio",
	"experiments.tabulate_s":      "s",
	"trace.overhead_ratio":        "ratio",
	"trace.replayed_share":        "ratio",
}

// span is one timed interval of the traced pass. Times are nanoseconds
// from the start of the pass; Parent is 0 for a root.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the pass ends. It is used from one
// goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span now and returns its id.
func (t *tracer) open(name string, parent int) int {
	return t.add(name, parent, time.Now(), time.Time{}, nil)
}

// close ends span id now.
func (t *tracer) close(id int, counters map[string]int64) {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	s.Counters = counters
}

// add records a span whose times were taken by the caller; a zero end
// leaves it open.
func (t *tracer) add(name string, parent int, start, end time.Time, counters map[string]int64) int {
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: int64(start.Sub(t.t0)), Counters: counters}
	if !end.IsZero() {
		s.EndNS = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// timedSource is a graph.BallSource that times every Ensure of the source
// it wraps and counts the nil answers, each a vertex that falls back to
// the ball builder. It is used from one goroutine.
type timedSource struct {
	graph.BallSource
	calls, ns, nils int64
}

func (s *timedSource) Ensure(center, r int) *graph.AtlasBall {
	t0 := time.Now()
	b := s.BallSource.Ensure(center, r)
	s.ns += int64(time.Since(t0))
	s.calls++
	if b == nil {
		s.nils++
	}
	return b
}

// opStat is the call count and busy time of one store operation.
type opStat struct{ calls, ns int64 }

// timedStore is a sweep.Store that times Put, Get and List of the store it
// wraps. Lease executors share it, so it locks.
type timedStore struct {
	sweep.Store
	mu                  sync.Mutex
	put, get, list      opStat
	bytesPut, listNames int64
}

func (s *timedStore) record(op *opStat, t0 time.Time, bytesPut, names int) {
	d := int64(time.Since(t0))
	s.mu.Lock()
	op.calls++
	op.ns += d
	s.bytesPut += int64(bytesPut)
	s.listNames += int64(names)
	s.mu.Unlock()
}

func (s *timedStore) Put(name string, data []byte) error {
	t0 := time.Now()
	err := s.Store.Put(name, data)
	s.record(&s.put, t0, len(data), 0)
	return err
}

func (s *timedStore) Get(name string) ([]byte, error) {
	t0 := time.Now()
	data, err := s.Store.Get(name)
	s.record(&s.get, t0, 0, 0)
	return data, err
}

func (s *timedStore) List(prefix string) ([]string, error) {
	t0 := time.Now()
	names, err := s.Store.List(prefix)
	s.record(&s.list, t0, 0, len(names))
	return names, err
}

// layerStats accumulates the replay's per-layer counters.
type layerStats struct {
	ensureCalls, ensureNS, fallbacks      int64
	drawCalls, drawNS, drawVertices       int64
	quotientSetupNS, quotientSteps, reps  int64
	quotient                              bool
	runCalls, runNS, runDecisions         int64
	allocRuns, allocs                     int64
	verifyCalls, verifyNS                 int64
	atlasBytes, atlasExhausted            int64
	replayNS, replayedWeighted, weighted  int64
	runW1, runW2, tabulate, codec, leased time.Duration
	codecBytes                            int64
	tabulated                             bool
	store                                 *timedStore
	lease                                 sweep.LeaseStats
	plannedGrains                         int64
}

// traceReport is what the traced child prints.
type traceReport struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Spans     []span             `json:"spans"`
}

// checker counts output checks and keeps the failures' descriptions.
type checker struct {
	attempted, failed int
	problems          []string
}

// check records one check; ok=false is a failure described by format.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// tracePass runs the traced pass of w at seed. want is the digest the plain
// table must have ("" when only consistency is checked).
func tracePass(ctx context.Context, w workload, seed int64, want string) traceReport {
	tr := newTracer()
	ls := &layerStats{}
	var c checker
	root := tr.open("workload "+w.name, 0)
	if err := traceEngine(ctx, tr, root, w, seed, want, ls, &c); err != nil {
		c.check(false, "engine: %v", err)
	}
	rid := tr.open("replay", root)
	t0 := time.Now()
	err := replay(ctx, tr, rid, w, seed, ls)
	ls.replayNS = int64(time.Since(t0))
	tr.close(rid, nil)
	c.check(err == nil, "replay: %v", err)
	tr.close(root, nil)
	return traceReport{Metrics: ls.metrics(), Attempted: c.attempted, Failed: c.failed, Problems: c.problems, Spans: tr.spans}
}

// traceEngine times the real engine: a warm-up plain run whose table is
// checked against want, RunSweeps at 1 and 2 workers (or the experiment's
// own Run when it exposes no sweeps), Tabulate, the result codec and, for
// the leased workload, a leased run over a timing store. Every table must
// equal the warm-up's.
func traceEngine(ctx context.Context, tr *tracer, parent int, w workload, seed int64, want string, ls *layerStats, c *checker) error {
	e, err := experiments.Get(w.exp)
	if err != nil {
		return err
	}
	plain := w
	plain.leased = false
	id := tr.open("warmup", parent)
	table, _, err := plain.run(ctx, seed, nil)
	tr.close(id, nil)
	if err != nil {
		return err
	}
	ref := digest(table)
	if want != "" {
		c.check(ref == want, "plain table digest %s, want %s", ref, want)
	}
	cfg1 := w.config(seed)
	cfg1.Workers = 1
	cfg2 := cfg1
	cfg2.Workers = 2

	var (
		tables  [2]string
		results [2][]*sweep.Result
		walls   [2]time.Duration
	)
	// Each worker count runs twice, alternating, and keeps its faster wall:
	// one slow period on the machine would otherwise skew the speedup.
	for range 2 {
		for i, cfg := range []experiments.Config{cfg1, cfg2} {
			id := tr.open(fmt.Sprintf("sweep.run_w%d", cfg.Workers), parent)
			t0 := time.Now()
			if e.Shardable() {
				results[i], err = experiments.RunSweeps(ctx, e, cfg, sweep.Shard{}, "")
			} else {
				var t *experiments.Table
				if t, err = e.Run(ctx, cfg); err == nil {
					tables[i] = t.Render()
				}
			}
			d := time.Since(t0)
			tr.close(id, nil)
			if err != nil {
				return err
			}
			if walls[i] == 0 || d < walls[i] {
				walls[i] = d
			}
		}
	}
	ls.runW1, ls.runW2 = walls[0], walls[1]
	if e.Shardable() {
		for i, cfg := range []experiments.Config{cfg1, cfg2} {
			id := tr.open("experiments.tabulate", parent)
			t0 := time.Now()
			t, err := e.Tabulate(cfg, results[i])
			ls.tabulate = time.Since(t0)
			tr.close(id, nil)
			if err != nil {
				return err
			}
			tables[i] = t.Render()
		}
		ls.tabulated = true
		if err := traceCodec(tr, parent, results[1], ls, c); err != nil {
			return err
		}
	}
	c.check(digest(tables[0]) == ref, "1-worker table differs from the plain table")
	c.check(digest(tables[1]) == ref, "2-worker table differs from the plain table")

	if w.leased {
		ls.store = &timedStore{}
		id := tr.open("sweep.leased", parent)
		t0 := time.Now()
		table, stats, err := w.run(ctx, seed, func(st sweep.Store) sweep.Store {
			ls.store.Store = st
			return ls.store
		})
		ls.leased = time.Since(t0)
		ls.lease = stats
		tr.close(id, map[string]int64{"grains": int64(stats.Grains), "duplicates": int64(stats.Duplicates)})
		if err != nil {
			return err
		}
		c.check(digest(table) == ref, "leased table differs from the plain table")
		specs, err := w.sweeps(seed)
		if err != nil {
			return err
		}
		for _, s := range specs {
			p, err := sweep.PlanOf(s)
			if err != nil {
				return err
			}
			counts, err := p.Counts()
			if err != nil {
				return err
			}
			for _, count := range counts {
				grain := max(1, (count+leaseGrains-1)/leaseGrains)
				ls.plannedGrains += int64((count + grain - 1) / grain)
			}
		}
	}
	return nil
}

// traceCodec round-trips every sweep result through the codec and checks
// that re-encoding the decoded result gives the same bytes.
func traceCodec(tr *tracer, parent int, results []*sweep.Result, ls *layerStats, c *checker) error {
	id := tr.open("sweep.codec", parent)
	defer tr.close(id, nil)
	t0 := time.Now()
	for _, res := range results {
		var enc, re bytes.Buffer
		if err := sweep.EncodeResult(&enc, res); err != nil {
			return err
		}
		ls.codecBytes += int64(enc.Len())
		encoded := append([]byte(nil), enc.Bytes()...)
		dec, err := sweep.DecodeResult(&enc)
		if err != nil {
			return err
		}
		if err := sweep.EncodeResult(&re, dec); err != nil {
			return err
		}
		c.check(bytes.Equal(encoded, re.Bytes()), "codec round trip changed the encoded result")
	}
	ls.codec = time.Since(t0)
	return nil
}

// replay re-executes every trial of the workload's sweeps on one goroutine,
// timing each layer call.
func replay(ctx context.Context, tr *tracer, parent int, w workload, seed int64, ls *layerStats) error {
	specs, err := w.sweeps(seed)
	if err != nil {
		return err
	}
	for k, spec := range specs {
		id := tr.open(fmt.Sprintf("sweep %d", k), parent)
		for i, n := range spec.Sizes {
			if err := replaySize(ctx, tr, id, spec, i, n, seed, ls); err != nil {
				return fmt.Errorf("sweep %d size %d: %w", k, n, err)
			}
		}
		tr.close(id, nil)
	}
	return nil
}

// sizeReplay is the replay state of one (sweep, size).
type sizeReplay struct {
	spec   sweep.Spec
	g      graph.Graph
	atlas  *graph.BallAtlas
	src    *timedSource
	runner *local.Runner
	opts   []local.Option
	ls     *layerStats
	// attached is the source last given to the runner.
	attached graph.BallSource
}

// replaySize replays every trial (or representative) of one size.
func replaySize(ctx context.Context, tr *tracer, parent int, spec sweep.Spec, sizeIdx, n int, seed int64, ls *layerStats) error {
	id := tr.open(fmt.Sprintf("size n=%d", n), parent)
	defer tr.close(id, nil)
	// The workloads' graphs are cycles, which ignore the generator, so the
	// replay builds the engine's instances whatever it is seeded with.
	g, err := spec.Graph(n, rand.New(rand.NewSource(seed+int64(sizeIdx))))
	if err != nil {
		return err
	}
	r := &sizeReplay{spec: spec, g: g, runner: local.NewRunner(), ls: ls,
		opts: []local.Option{local.WithContext(ctx), local.WithValidatedIDs()}}
	if spec.Backend == sweep.BackendImplicit {
		ig, ok := g.(graph.Implicit)
		if !ok {
			return fmt.Errorf("%T has no implicit form", g)
		}
		r.src = &timedSource{BallSource: graph.NewImplicitBalls(ig)}
	} else {
		r.atlas = graph.NewBallAtlas(g, spec.AtlasMemLimit)
		r.src = &timedSource{BallSource: r.atlas}
	}
	buf := make([]int, n)
	if spec.Exhaustive {
		err = r.exhaustive(tr, id, buf)
	} else {
		err = r.sampled(tr, id, buf, sizeIdx)
	}
	if err != nil {
		return err
	}
	ls.ensureCalls += r.src.calls
	ls.ensureNS += r.src.ns
	ls.fallbacks += r.src.nils
	if r.atlas != nil {
		ls.atlasBytes += r.atlas.MemUsed()
		if r.atlas.Exhausted() {
			ls.atlasExhausted++
		}
	}
	return nil
}

// sampled replays the size's sampled trials, one span per trial.
func (r *sizeReplay) sampled(tr *tracer, parent int, buf []int, sizeIdx int) error {
	n := len(buf)
	// The engine's per-trial seeds are unexported, so the replay draws
	// permutations of its own from a generator reseeded per trial, as the
	// engine's workers do: the same calls, on different permutations.
	rng := rand.New(rand.NewSource(0))
	for t := 0; t < r.spec.Trials; t++ {
		tid := tr.open("trial", parent)
		t0 := time.Now()
		rng.Seed(r.spec.Seed*1_000_003 + int64(sizeIdx)<<32 + int64(t))
		a := ids.RandomInto(buf, rng)
		t1 := time.Now()
		tr.add("ids.draw", tid, t0, t1, nil)
		r.ls.drawCalls++
		r.ls.drawNS += int64(t1.Sub(t0))
		r.ls.drawVertices += int64(n)
		if err := r.decide(tr, tid, a, t < allocRuns); err != nil {
			return err
		}
		r.ls.replayedWeighted += int64(n)
		tr.close(tid, nil)
	}
	r.ls.weighted += int64(n) * int64(r.spec.Trials)
	return nil
}

// exhaustive replays the size's canonical orbit representatives (up to
// maxReplayReps), one span per block of quotientBlock.
func (r *sizeReplay) exhaustive(tr *tracer, parent int, buf []int) error {
	if !r.spec.Quotient {
		return fmt.Errorf("the replay enumerates exhaustive sweeps by quotient only")
	}
	n := len(buf)
	ag, ok := r.g.(graph.Automorphisms)
	if !ok {
		return fmt.Errorf("%T declares no automorphisms", r.g)
	}
	sym := ag.Automorphisms()
	t0 := time.Now()
	q, err := ids.NewQuotient(n, sym.Generators, sym.Order, sym.Full)
	d := time.Since(t0)
	tr.add("ids.quotient_setup", parent, t0, t0.Add(d), nil)
	if err != nil {
		return err
	}
	r.ls.quotient = true
	r.ls.quotientSetupNS += int64(d)
	weight := int64(q.Order())
	count := q.Count()
	limit := min(count, maxReplayReps)
	for b0 := uint64(0); b0 < limit; b0 += quotientBlock {
		b1 := min(b0+quotientBlock, limit)
		bid := tr.open("block", parent)
		before, calls := *r.ls, r.src.calls
		for rank := b0; rank < b1; rank++ {
			t0 := time.Now()
			var a ids.Assignment
			if rank == b0 {
				if a, err = q.CanonicalUnrankInto(buf, rank); err != nil {
					return err
				}
			} else {
				steps, ok := q.NextCanonicalInto(buf)
				if !ok {
					return fmt.Errorf("canonical walk ended before rank %d", rank)
				}
				r.ls.quotientSteps += int64(steps)
				a = ids.Assignment(buf)
			}
			r.ls.drawNS += int64(time.Since(t0))
			r.ls.drawCalls++
			r.ls.drawVertices += int64(n)
			r.ls.reps++
			if err := r.decide(nil, 0, a, rank < allocRuns); err != nil {
				return err
			}
		}
		tr.close(bid, map[string]int64{
			"reps":         int64(b1 - b0),
			"draw_ns":      r.ls.drawNS - before.drawNS,
			"run_ns":       r.ls.runNS - before.runNS,
			"verify_ns":    r.ls.verifyNS - before.verifyNS,
			"steps":        r.ls.quotientSteps - before.quotientSteps,
			"ensure_calls": r.src.calls - calls,
		})
		r.ls.replayedWeighted += int64(b1-b0) * weight * int64(n)
	}
	f, err := ids.Factorial(n)
	if err != nil {
		return err
	}
	r.ls.weighted += int64(f) * int64(n)
	return nil
}

// decide runs the algorithm on one assignment and verifies the outputs,
// recording spans under parent when tr is set. countAllocs brackets the
// Run call with heap statistics, outside its timing.
func (r *sizeReplay) decide(tr *tracer, parent int, a ids.Assignment, countAllocs bool) error {
	n := r.g.N()
	alg := r.spec.Alg(n, a)
	// A kernel reads balls through the timing source; the per-vertex view
	// path reads them from a materialised atlas only, so it gets the atlas
	// itself, exactly as in the engine, and its ball reads go untimed.
	src := graph.BallSource(r.src)
	if _, kernel := alg.(local.Kernel); !kernel && r.atlas != nil {
		src = r.atlas
	}
	if src != r.attached {
		r.runner.SetSource(src)
		r.attached = src
	}
	var m0, m1 runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&m0)
	}
	calls := r.src.calls
	t0 := time.Now()
	res, err := r.runner.Run(r.g, a, alg, r.opts...)
	t1 := time.Now()
	if countAllocs {
		runtime.ReadMemStats(&m1)
		r.ls.allocRuns++
		r.ls.allocs += int64(m1.Mallocs - m0.Mallocs)
	}
	if err != nil {
		return err
	}
	r.ls.runCalls++
	r.ls.runNS += int64(t1.Sub(t0))
	r.ls.runDecisions += int64(n)
	if tr != nil {
		tr.add("local.run", parent, t0, t1, map[string]int64{"ensure_calls": r.src.calls - calls})
	}
	if r.spec.Verify == nil {
		return nil
	}
	t2 := time.Now()
	verr := r.spec.Verify(r.g, a, res)
	t3 := time.Now()
	r.ls.verifyCalls++
	r.ls.verifyNS += int64(t3.Sub(t2))
	if tr != nil {
		tr.add("problems.verify", parent, t2, t3, nil)
	}
	return verr
}

// metrics turns the counters into the per-layer metrics.
func (ls *layerStats) metrics() map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	m := map[string]float64{
		"graph.ensure_calls":          float64(ls.ensureCalls),
		"graph.ensure_share":          ratio(float64(ls.ensureNS), float64(ls.runNS)),
		"graph.fallback_vertices":     float64(ls.fallbacks),
		"graph.fallback_share":        ratio(float64(ls.fallbacks), float64(ls.runDecisions)),
		"graph.atlas_mb":              float64(ls.atlasBytes) / (1 << 20),
		"graph.atlas_exhausted_sizes": float64(ls.atlasExhausted),
		"ids.draw_calls":              float64(ls.drawCalls),
		"ids.draw_s":                  sec(ls.drawNS),
		"ids.draw_ns_per_vertex":      ratio(float64(ls.drawNS), float64(ls.drawVertices)),
		"ids.quotient_steps_per_rep":  ratio(float64(ls.quotientSteps), float64(ls.reps)),
		"local.run_calls":             float64(ls.runCalls),
		"local.run_s":                 sec(ls.runNS),
		"local.self_s":                sec(ls.runNS - ls.ensureNS),
		"local.ns_per_decision":       ratio(float64(ls.runNS), float64(ls.runDecisions)),
		"local.allocs_per_run":        ratio(float64(ls.allocs), float64(ls.allocRuns)),
		"problems.verify_calls":       float64(ls.verifyCalls),
		"problems.verify_share":       ratio(float64(ls.verifyNS), float64(ls.drawNS+ls.runNS+ls.verifyNS)),
		"sweep.run_w1_s":              ls.runW1.Seconds(),
		"sweep.run_w2_s":              ls.runW2.Seconds(),
		"sweep.speedup_w2":            ratio(ls.runW1.Seconds(), ls.runW2.Seconds()),
		"trace.replayed_share":        ratio(float64(ls.replayedWeighted), float64(ls.weighted)),
	}
	m["trace.overhead_ratio"] = ratio(ratio(sec(ls.replayNS), m["trace.replayed_share"]), ls.runW1.Seconds())
	if ls.ensureCalls > 0 {
		m["graph.ensure_s"] = sec(ls.ensureNS)
		m["graph.ensure_ns"] = ratio(float64(ls.ensureNS), float64(ls.ensureCalls))
	}
	if ls.quotient {
		m["ids.quotient_setup_s"] = sec(ls.quotientSetupNS)
	}
	if ls.verifyCalls > 0 {
		m["problems.verify_s"] = sec(ls.verifyNS)
	}
	if ls.tabulated {
		m["experiments.tabulate_s"] = ls.tabulate.Seconds()
		m["sweep.codec_s"] = ls.codec.Seconds()
		m["sweep.codec_bytes"] = float64(ls.codecBytes)
	}
	st := ls.store
	if st == nil {
		st = &timedStore{}
	} else {
		m["sweep.store.put_s"] = sec(st.put.ns)
		m["sweep.store.get_s"] = sec(st.get.ns)
		m["sweep.store.list_s"] = sec(st.list.ns)
	}
	m["sweep.store.put_calls"] = float64(st.put.calls)
	m["sweep.store.get_calls"] = float64(st.get.calls)
	m["sweep.store.list_calls"] = float64(st.list.calls)
	m["sweep.store.list_names"] = float64(st.listNames)
	m["sweep.store.bytes_put"] = float64(st.bytesPut)
	// Two executors call the store concurrently, so busy time is shared
	// over both executors' wall time.
	m["sweep.store.share"] = ratio(sec(st.put.ns+st.get.ns+st.list.ns), 2*ls.leased.Seconds())
	m["sweep.lease.grains"] = float64(ls.lease.Grains)
	m["sweep.lease.duplicates"] = float64(ls.lease.Duplicates)
	m["sweep.lease.claims"] = float64(ls.lease.Claims)
	m["sweep.lease.steals"] = float64(ls.lease.Steals)
	m["sweep.lease.adopted"] = float64(ls.lease.Adopted)
	m["sweep.lease.speculated"] = float64(ls.lease.Speculated)
	m["sweep.lease.useful_ratio"] = ratio(float64(ls.plannedGrains), float64(ls.lease.Grains))
	m["sweep.lease.overhead_ratio"] = ratio(ls.leased.Seconds(), (ls.runW2 + ls.tabulate).Seconds())
	return m
}
