package sweep

// Grain claims over a Store: the one way to split, resume or share a sweep
// across executors and processes. Each size's trial space is quantized
// into grains. An executor walks the grains of its target, largest size
// first and within a size in an order of its own, claims a free grain by
// writing a marker that holds its worker id, executes the grain through
// the ordinary engine, and publishes an immutable per-grain completion
// record. One rule covers every recovery:
//
//   - a grain another executor has claimed but not completed is skipped at
//     first, and re-executed once this executor has made patience idle
//     passes — so a dead peer, a slow peer and a peer whose completion
//     write failed all cost at most a duplicate, never a stall;
//   - a grain that carries this executor's own marker but no completion
//     (a killed earlier run under the same worker id, or a completion write
//     that failed) is re-executed at once.
//
// The static i-of-m split (LeaseOptions.Static) is the same rule over one
// slice of the grains, and a single executor over a DirStore is a
// checkpointed run: its completion records are the checkpoint, so a killed
// run resumes by starting the executor again.
//
// Safety never rests on mutual exclusion. Every grain's aggregate is a
// deterministic function of the plan and the grain's coordinates alone, so
// two executors racing on one grain publish byte-identical records and the
// first write wins; a lost marker, a duplicated completion or a crashed
// executor only ever duplicates work. Markers are advisory: they are never
// decoded, and they may stay after their grain completes. The merge
// (CollectLeased) folds one record per grain in ascending trial order —
// bit-identical to a single uninterrupted run — and rejects anything else:
// overlapping ranges are a typed *OverlapError (double-counting) and gaps a
// typed *IncompleteError. Torn or foreign records count as absent, for the
// merge and the executors alike (runShape.read is their one predicate), so
// an executor re-executes every grain the merge would find missing.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"sort"
	"time"

	"repro/internal/ids"
)

// Completion is the immutable per-grain result record: the block
// coordinate plus the aggregate of exactly its trials. Stored at
// <run>/done/<size>-<t0>; duplicates of one grain are byte-identical in
// every field except Worker, which is why Worker is excluded from the
// merge's equality reasoning.
type Completion struct {
	PlanSum uint64 `json:"plansum"`
	Worker  string `json:"worker"`
	Block   Block  `json:"block"`
	// Weight is the per-trial fold weight of the block's aggregate: the
	// orbit size under a quotient plan, omitted (meaning 1) otherwise.
	// Records whose weight disagrees with the plan's do not count — their
	// aggregate covers a different mass.
	Weight int64     `json:"weight,omitempty"`
	Stats  SizeStats `json:"stats"`
}

// normWeight maps the wire encoding (0 = field omitted = weight 1) to the
// effective fold weight.
func normWeight(w int64) int64 {
	if w == 0 {
		return 1
	}
	return w
}

// leasePlan is the run's identity record at <run>/plan: cooperating
// executors must agree on the plan AND the grain schedule, or their
// completion ranges would not tile.
type leasePlan struct {
	Plan   Plan `json:"plan"`
	Grains int  `json:"grains"`
}

// EncodeCompletion serializes a completion record.
func EncodeCompletion(w io.Writer, c *Completion) error {
	return EncodeFile(w, FormatCompletion, c)
}

// DecodeCompletion reads a completion record and validates it: the block
// range must be sane, and the aggregate must cover exactly the block's
// trials and satisfy the codec invariants. Failures are *DecodeError.
func DecodeCompletion(r io.Reader) (*Completion, error) {
	c := &Completion{}
	if err := DecodeFile(r, FormatCompletion, c); err != nil {
		return nil, err
	}
	reject := func(reason string) (*Completion, error) {
		return nil, &DecodeError{Format: FormatCompletion, Reason: reason}
	}
	if c.Block.SizeIdx < 0 {
		return reject(fmt.Sprintf("negative size index %d", c.Block.SizeIdx))
	}
	if c.Block.T0 < 0 || c.Block.T0 >= c.Block.T1 {
		return reject(fmt.Sprintf("invalid block range [%d,%d)", c.Block.T0, c.Block.T1))
	}
	if c.Stats.N <= 0 {
		return reject(fmt.Sprintf("aggregate for impossible size n=%d", c.Stats.N))
	}
	if c.Weight < 0 {
		return reject(fmt.Sprintf("negative fold weight %d", c.Weight))
	}
	// The aggregate owes (T1-T0)·weight trials. The weight is untrusted
	// input, so the multiply is overflow-guarded by division.
	w := normWeight(c.Weight)
	span := int64(c.Block.T1 - c.Block.T0)
	if w > math.MaxInt64/span {
		return reject(fmt.Sprintf("weighted trial count of block [%d,%d) × %d overflows",
			c.Block.T0, c.Block.T1, w))
	}
	if got, want := int64(c.Stats.Trials), span*w; got != want {
		return reject(fmt.Sprintf("aggregate carries %d trials, block [%d,%d) × weight %d owes %d",
			got, c.Block.T0, c.Block.T1, w, want))
	}
	if err := validateSizes([]SizeStats{c.Stats}, FormatCompletion); err != nil {
		return nil, err
	}
	return c, nil
}

// OverlapError reports two trial ranges claiming the same trials — merging
// them would double-count. It is the typed rejection of the first-write-
// wins precondition, raised by CollectLeased.
type OverlapError struct {
	// N is the instance size whose trial space collided.
	N int
	// A and B are the colliding ranges.
	A, B TrialRange
	// Key names the offending completion record in the store (range B's).
	Key string
}

func (e *OverlapError) Error() string {
	msg := fmt.Sprintf("sweep: n=%d: trial range [%d,%d) overlaps [%d,%d); merging would double-count trials",
		e.N, e.A.T0, e.A.T1, e.B.T0, e.B.T1)
	if e.Key != "" {
		msg += fmt.Sprintf(" (offending record %q)", e.Key)
	}
	return msg
}

// IncompleteError reports a collect over a store that does not yet cover
// the plan's whole trial space.
type IncompleteError struct {
	// N is the first instance size with uncovered trials.
	N int
	// Missing lists its uncovered ranges, ascending.
	Missing []TrialRange
	// Prefix is the run's store namespace.
	Prefix string
}

func (e *IncompleteError) Error() string {
	msg := fmt.Sprintf("sweep: n=%d: trial ranges %v not yet completed", e.N, e.Missing)
	if e.Prefix != "" {
		msg += fmt.Sprintf(" (run %q)", e.Prefix)
	}
	return msg
}

// LeaseOptions tunes one executor's participation in a lease run.
type LeaseOptions struct {
	// Prefix is the run's namespace inside the store (default "leaserun").
	// Executors sharing a prefix cooperate on one plan.
	Prefix string
	// Worker is this executor's unique id (required; store-name-safe). Its
	// claim markers hold it, and it seeds the executor's grain order.
	Worker string
	// GrainsPerSize is the target number of grains each size's trial space
	// is quantized into (default 16). All executors of a run must agree —
	// the run's plan record enforces it.
	GrainsPerSize int
	// Poll is the wait after a pass that executed nothing (default 25ms).
	// Consecutive idle passes, and retries of a transiently failing scan,
	// back off from Poll (×1.5 per attempt, capped at 8×Poll, with 20%
	// jitter seeded from the worker id) instead of hammering the store at a
	// fixed rate.
	Poll time.Duration
	// Static degrades the executor to the classic i-of-m schedule: it walks
	// only the grains whose start falls in this shard's slice and exits when
	// ITS slice is covered rather than the whole space. The zero value walks
	// every grain.
	Static Shard
	// Throttle, when set, runs before every grain execution — the test
	// hook unequal-speed soak workers and chaos kills are built on.
	Throttle func(b Block)
}

// LeaseStats summarises one executor's participation.
type LeaseStats struct {
	// Grains counts grain executions, re-executions included.
	Grains int
	// Duplicates counts grains skipped because a valid completion already
	// existed when this executor was about to execute them.
	Duplicates int
	// Claims counts markers written on free grains.
	Claims int
	// Steals is always zero: a claim covers a single grain, so there is no
	// claimed remainder to take from a peer. The field keeps the stats'
	// shape for readers that report it.
	Steals int
	// Adopted counts re-executions of grains that carried this executor's
	// own marker but no completion.
	Adopted int
	// Speculated counts re-executions of grains another executor had
	// claimed but not completed, made after the idle-pass patience.
	Speculated int
}

// Add folds another executor's stats into s.
func (s *LeaseStats) Add(o LeaseStats) {
	s.Grains += o.Grains
	s.Duplicates += o.Duplicates
	s.Claims += o.Claims
	s.Steals += o.Steals
	s.Adopted += o.Adopted
	s.Speculated += o.Speculated
}

// WorkerError attributes a leased executor's failure to its worker id, so
// a caller running several executors knows which one to restart.
// Everything RunLeased fails with after option validation is wrapped in
// one; Unwrap keeps errors.Is/As working on the cause (context.Canceled,
// fs.ErrNotExist, ...).
type WorkerError struct {
	// Worker is the failing executor's id.
	Worker string
	// Err is the underlying failure.
	Err error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("sweep: worker %s: %v", e.Worker, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// planSum fingerprints a plan for cheap foreign-record rejection. It is
// not a security boundary — the codec's structural validation is — just a
// guard against honest cross-run mixups.
func planSum(p Plan) uint64 {
	raw, err := json.Marshal(p)
	if err != nil {
		// A Plan is plain ints and bools; Marshal cannot fail on it.
		panic(fmt.Sprintf("sweep: marshal plan: %v", err))
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// Store layout helpers.
func leasePlanKey(prefix string) string { return prefix + "/plan" }
func completionKey(prefix string, b Block) string {
	return fmt.Sprintf("%s/done/%d-%d", prefix, b.SizeIdx, b.T0)
}
func claimKey(prefix string, b Block) string {
	return fmt.Sprintf("%s/claim/%d-%d", prefix, b.SizeIdx, b.T0)
}

// grainSize quantizes one size's trial count into about grains pieces.
func grainSize(count, grains int) int {
	g := (count + grains - 1) / grains
	if g < 1 {
		g = 1
	}
	return g
}

// alignUp rounds t up to the next grain boundary.
func alignUp(t, grain int) int {
	return ((t + grain - 1) / grain) * grain
}

// ensureLeasePlan anchors the run's identity in the store: the first
// executor writes the plan+grain record, later ones must present an equal
// one. A torn existing record is overwritten (it decodes to nothing).
func ensureLeasePlan(st Store, prefix string, lp *leasePlan) error {
	key := leasePlanKey(prefix)
	if data, err := st.Get(key); err == nil {
		existing := &leasePlan{}
		if derr := DecodeFile(bytes.NewReader(data), FormatLeasePlan, existing); derr == nil {
			if !existing.Plan.Equal(lp.Plan) || existing.Grains != lp.Grains {
				return fmt.Errorf("sweep: lease run %q was planned differently (plan or grain schedule mismatch)", prefix)
			}
			return nil
		}
	}
	var buf bytes.Buffer
	if err := EncodeFile(&buf, FormatLeasePlan, lp); err != nil {
		return err
	}
	if err := st.Put(key, buf.Bytes()); err != nil {
		return fmt.Errorf("sweep: write lease plan: %w", err)
	}
	return nil
}

// runShape is what a completion record must match to count toward a run.
type runShape struct {
	sum     uint64
	sizes   []int
	counts  []int
	weights []int // fold weight per size index (quotient orbit size)
}

func shapeOf(p Plan) (runShape, error) {
	counts, err := p.Counts()
	if err != nil {
		return runShape{}, err
	}
	ws := make([]int, len(p.Sizes))
	for i := range ws {
		ws[i] = p.Weight(i)
	}
	return runShape{sum: planSum(p), sizes: p.Sizes, counts: counts, weights: ws}, nil
}

// read fetches the completion record at name and returns it if it counts
// toward the run, nil otherwise: it must decode, and carry the plan's
// fingerprint, a size index and trial range inside the plan, that size's n
// and its fold weight. Executors and CollectLeased both decide with it, so
// an executor never takes as done a record the merge would skip.
func (s *runShape) read(st Store, name string) *Completion {
	data, err := st.Get(name)
	if err != nil {
		return nil // vanished mid-scan: absent
	}
	c, err := DecodeCompletion(bytes.NewReader(data))
	if err != nil {
		return nil // torn or forged: absent until overwritten with valid bytes
	}
	i := c.Block.SizeIdx
	if c.PlanSum != s.sum || i >= len(s.counts) || c.Block.T1 > s.counts[i] ||
		c.Stats.N != s.sizes[i] || normWeight(c.Weight) != int64(s.weights[i]) {
		return nil // foreign: another plan, range, size or fold weight
	}
	return c
}

// covered reports whether the coalesced ascending range list contains
// [r.T0, r.T1) entirely.
func covered(ranges []TrialRange, r TrialRange) bool {
	if r.T0 >= r.T1 {
		return true
	}
	for _, x := range ranges {
		if x.T0 <= r.T0 && r.T1 <= x.T1 {
			return true
		}
	}
	return false
}

// insertRange adds r to an ascending non-overlapping range list, merging
// with adjacent or overlapping neighbours.
func insertRange(ranges []TrialRange, r TrialRange) []TrialRange {
	at := len(ranges)
	for i, x := range ranges {
		if r.T0 <= x.T1 {
			at = i
			break
		}
	}
	// Absorb every range that touches [r.T0, r.T1).
	end := at
	for end < len(ranges) && ranges[end].T0 <= r.T1 {
		if ranges[end].T0 < r.T0 {
			r.T0 = ranges[end].T0
		}
		if ranges[end].T1 > r.T1 {
			r.T1 = ranges[end].T1
		}
		end++
	}
	out := append(ranges[:at:at], r)
	return append(out, ranges[end:]...)
}

// isRetryable reports whether a store operation's failure is worth a
// backed-off retry, or a later re-execution of the same grain:
//
//   - context cancellation or deadline: no — the caller is being told to
//     stop, not the medium failing;
//   - fs.ErrNotExist / fs.ErrPermission: no — a vanished or read-only
//     store does not heal by retrying;
//   - *DecodeError: no — corrupt bytes re-read identically;
//   - anything else: yes — an unclassified media fault is presumed
//     transient. Retrying a permanent fault only costs a few backed-off
//     attempts; giving up on a blip costs a worker death.
func isRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) {
		return false
	}
	var de *DecodeError
	return !errors.As(err, &de)
}

const (
	// patience is how many consecutive idle passes (passes that executed
	// nothing) an executor makes before it re-executes grains another
	// executor has claimed but not completed.
	patience = 3
	// scanRetries bounds the backed-off rescans a transiently failing scan
	// gets before the executor gives up.
	scanRetries = 2
)

// leaseRunner is one RunLeased invocation's working state.
type leaseRunner struct {
	spec   Spec
	st     Store
	opts   LeaseOptions
	retry  backoff
	shape  runShape
	grain  []int        // grain size per size index
	target []TrialRange // this executor's target range per size
	order  []int        // size indices, largest instance first
	// done caches the counted completion records by store key. Counted
	// records are never overwritten, so a scan fetches only new names.
	done map[string]*Completion
	// held is the marker of the grain running under this executor's own
	// claim, deleted if the executor fails mid-grain.
	held  string
	stats LeaseStats
}

// RunLeased executes the spec's plan as one cooperating lease executor
// against the store and returns this executor's participation stats. The
// call returns when the executor's target is fully covered by valid
// completion records — the whole trial space for the dynamic schedule, or
// this shard's grains under Static — from any combination of workers.
// Merge the records with CollectLeased; the result is byte-identical to a
// single uninterrupted Run of the same spec.
//
// The spec must leave Done unset: the lease schedule owns the trial-space
// slicing, and per-grain completions are the progress record — a restarted
// executor resumes from whatever the store already covers.
func RunLeased(ctx context.Context, spec Spec, st Store, opts LeaseOptions) (LeaseStats, error) {
	var zero LeaseStats
	if st == nil {
		return zero, fmt.Errorf("sweep: RunLeased needs a store")
	}
	if opts.Worker == "" {
		return zero, fmt.Errorf("sweep: RunLeased needs a worker id")
	}
	if err := validStoreName(opts.Worker); err != nil {
		return zero, fmt.Errorf("sweep: worker id: %w", err)
	}
	if spec.Done != nil {
		return zero, fmt.Errorf("sweep: RunLeased owns the schedule; Spec.Done must be unset")
	}
	if err := opts.Static.validate(); err != nil {
		return zero, err
	}
	if opts.Prefix == "" {
		opts.Prefix = "leaserun"
	}
	if err := validStoreName(opts.Prefix); err != nil {
		return zero, fmt.Errorf("sweep: lease prefix: %w", err)
	}
	if opts.GrainsPerSize <= 0 {
		opts.GrainsPerSize = 16
	}
	if opts.Poll <= 0 {
		opts.Poll = 25 * time.Millisecond
	}
	if ctx == nil {
		ctx = context.Background()
	}

	plan, err := PlanOf(spec)
	if err != nil {
		return zero, err
	}
	shape, err := shapeOf(plan)
	if err != nil {
		return zero, err
	}
	if err := ensureLeasePlan(st, opts.Prefix, &leasePlan{Plan: plan, Grains: opts.GrainsPerSize}); err != nil {
		return zero, &WorkerError{Worker: opts.Worker, Err: err}
	}

	r := &leaseRunner{
		spec: spec, st: st, opts: opts, shape: shape,
		retry:  leaseBackoff(opts.Poll, opts.Worker),
		grain:  make([]int, len(shape.counts)),
		target: make([]TrialRange, len(shape.counts)),
		done:   make(map[string]*Completion),
	}
	for i, c := range shape.counts {
		r.grain[i] = grainSize(c, opts.GrainsPerSize)
		lo, hi := 0, c
		if !opts.Static.IsZero() {
			// The degenerate schedule: grain g belongs to the shard whose
			// classic slice contains g's start, so m static workers tile
			// the grain set exactly once with no coordination.
			slo, shi := opts.Static.Range(c)
			lo = min(alignUp(slo, r.grain[i]), c)
			hi = min(alignUp(shi, r.grain[i]), c)
		}
		r.target[i] = TrialRange{T0: lo, T1: hi}
	}
	// Largest instance first, like the engine's own block planner.
	r.order = make([]int, len(plan.Sizes))
	for i := range r.order {
		r.order[i] = i
	}
	sort.SliceStable(r.order, func(a, b int) bool {
		return plan.Sizes[r.order[a]] > plan.Sizes[r.order[b]]
	})

	if err := r.loop(ctx); err != nil {
		if r.held != "" {
			// Free the interrupted grain for peers at once, instead of after
			// their patience. Best effort: a marker left behind only delays.
			st.Delete(r.held)
		}
		// Everything past option validation is a worker-attributable
		// failure.
		return r.stats, &WorkerError{Worker: opts.Worker, Err: err}
	}
	return r.stats, nil
}

// loop makes passes over the target until a scan finds it covered. Each
// pass lists the completions once, then visits every uncovered grain in
// this executor's order; a pass that executed nothing backs off.
func (r *leaseRunner) loop(ctx context.Context) error {
	idle, faults := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sweep: leased run cancelled: %w", err)
		}
		if err := r.scan(); err != nil {
			// A transiently faulting store gets scanRetries backed-off
			// rescans before the executor dies; a final fault — vanished
			// root, permission — kills the executor immediately.
			if faults++; !isRetryable(err) || faults > scanRetries {
				return err
			}
			r.retry.wait(ctx, faults-1)
			continue
		}
		faults = 0
		cov := r.coverage()
		if r.complete(cov) {
			return nil
		}
		ran := false
		for _, i := range r.order {
			t, g := r.target[i], r.grain[i]
			k := (t.T1 - t.T0 + g - 1) / g
			// Executors walk a size's grains in orders of their own (seeded
			// by the worker id, like the backoff), so peers rarely reach the
			// same free grain at once.
			perm := ids.NewStreamPerm(k, r.retry.seed)
			for j := 0; j < k; j++ {
				t0 := t.T0 + perm.ID(j)*g
				b := Block{SizeIdx: i, T0: t0, T1: min(t0+g, t.T1)}
				if covered(cov[i], TrialRange{T0: b.T0, T1: b.T1}) {
					continue
				}
				executed, err := r.visit(ctx, b, idle >= patience)
				if err != nil {
					return err
				}
				ran = ran || executed
			}
		}
		if r.complete(r.coverage()) {
			return nil
		}
		if ran {
			idle = 0
			continue
		}
		// Peers hold all remaining work: back off and rescan, waiting
		// longer the longer nothing is claimable.
		r.retry.wait(ctx, idle)
		idle++
	}
}

// scan lists the run's completion records and caches every new one that
// counts.
func (r *leaseRunner) scan() error {
	names, err := r.st.List(r.opts.Prefix + "/done/")
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, ok := r.done[name]; ok {
			continue
		}
		if c := r.shape.read(r.st, name); c != nil {
			r.done[name] = c
		}
	}
	return nil
}

// coverage coalesces the cached records into per-size covered ranges.
func (r *leaseRunner) coverage() [][]TrialRange {
	cov := make([][]TrialRange, len(r.target))
	for _, c := range r.done {
		i := c.Block.SizeIdx
		cov[i] = insertRange(cov[i], TrialRange{T0: c.Block.T0, T1: c.Block.T1})
	}
	return cov
}

// complete reports whether cov covers every size's target.
func (r *leaseRunner) complete(cov [][]TrialRange) bool {
	for i, t := range r.target {
		if !covered(cov[i], t) {
			return false
		}
	}
	return true
}

// visit applies the claim rule to one uncovered grain and reports whether
// it executed the grain: claim it if free, re-execute it at once under this
// executor's own marker, and under another executor's marker only when
// speculate is set (the patience ran out). A speculating executor leaves
// the other executor's marker as it is.
func (r *leaseRunner) visit(ctx context.Context, b Block, speculate bool) (bool, error) {
	mark := claimKey(r.opts.Prefix, b)
	owner, err := r.st.Get(mark)
	var redo *int // the re-execution counter; nil for a fresh claim
	switch {
	case err != nil:
		// Free (or unreadable, which only risks a duplicate). A failed
		// marker write only hides the claim — unless the store is gone.
		if err := r.st.Put(mark, []byte(r.opts.Worker)); err != nil && !isRetryable(err) {
			return false, err
		}
		r.stats.Claims++
		r.held = mark
	case string(owner) == r.opts.Worker:
		r.held, redo = mark, &r.stats.Adopted
	case speculate:
		redo = &r.stats.Speculated
	default:
		return false, nil
	}
	ran, err := r.execute(ctx, b)
	if err != nil {
		return ran, err
	}
	r.held = ""
	if ran && redo != nil {
		*redo++
	}
	return ran, nil
}

// execute runs one grain and publishes its completion record, unless a
// record that counts already exists for this very grain (first write wins:
// a valid record is never overwritten). It reports whether it ran the
// grain.
func (r *leaseRunner) execute(ctx context.Context, b Block) (bool, error) {
	key := completionKey(r.opts.Prefix, b)
	if c := r.shape.read(r.st, key); c != nil && c.Block == b {
		r.stats.Duplicates++
		r.done[key] = c
		return false, nil
	}
	if r.opts.Throttle != nil {
		r.opts.Throttle(b)
	}
	stats, err := r.runGrain(ctx, b)
	if err != nil {
		return true, err
	}
	r.stats.Grains++
	comp := &Completion{PlanSum: r.shape.sum, Worker: r.opts.Worker, Block: b, Stats: stats}
	if w := r.shape.weights[b.SizeIdx]; w > 1 {
		comp.Weight = int64(w)
	}
	var buf bytes.Buffer
	if err := EncodeCompletion(&buf, comp); err != nil {
		return true, err
	}
	// A final fault (vanished root, permission) ends the run. A transient
	// one leaves the grain uncovered, so a later pass re-executes it and
	// overwrites whatever the failed write left.
	switch err := r.st.Put(key, buf.Bytes()); {
	case err == nil:
		r.done[key] = comp
	case !isRetryable(err):
		return true, err
	}
	return true, nil
}

// runGrain executes exactly the grain's trials through the ordinary
// engine: the rest of the trial space is declared Done, so the planner
// emits the grain and nothing else. Graphs are rebuilt per grain (cheap,
// deterministic) and the per-size atlas comes from the engine's cross-run
// cache, so repeated grains at one size share their BFS layers.
func (r *leaseRunner) runGrain(ctx context.Context, b Block) (SizeStats, error) {
	s := r.spec
	done := make([][]TrialRange, len(r.shape.counts))
	for j, c := range r.shape.counts {
		if j != b.SizeIdx {
			done[j] = []TrialRange{{T0: 0, T1: c}}
			continue
		}
		var rs []TrialRange
		if b.T0 > 0 {
			rs = append(rs, TrialRange{T0: 0, T1: b.T0})
		}
		if b.T1 < c {
			rs = append(rs, TrialRange{T0: b.T1, T1: c})
		}
		done[j] = rs
	}
	s.Done = done
	res, err := Run(ctx, s)
	if err != nil {
		return SizeStats{}, err
	}
	return res.Sizes[b.SizeIdx], nil
}

// sleepCtx waits d or until the context fires, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// CollectLeased folds a lease run's completion records into the Result a
// single uninterrupted Run of the plan's spec produces, byte for byte. It
// is strict: per size, the valid records must tile the plan's trial space
// exactly once — overlaps fail with *OverlapError (the first-write-wins
// precondition), gaps with *IncompleteError, and a store whose plan record
// disagrees with the expected plan is rejected outright. Torn or foreign
// records are skipped (they are "absent", exactly as executors treat
// them), so they surface as gaps, never as corrupted aggregates.
func CollectLeased(st Store, prefix string, plan Plan) (*Result, error) {
	shape, err := shapeOf(plan)
	if err != nil {
		return nil, err
	}
	if data, err := st.Get(leasePlanKey(prefix)); err == nil {
		lp := &leasePlan{}
		if derr := DecodeFile(bytes.NewReader(data), FormatLeasePlan, lp); derr == nil && !lp.Plan.Equal(plan) {
			return nil, fmt.Errorf("sweep: lease run %q holds a different plan", prefix)
		}
	}
	names, err := st.List(prefix + "/done/")
	if err != nil {
		return nil, err
	}
	// Each completion keeps its store key so a collect failure can name the
	// offending record, not just describe the collision.
	type keyed struct {
		c   *Completion
		key string
	}
	bySize := make([][]keyed, len(plan.Sizes))
	for _, name := range names {
		if c := shape.read(st, name); c != nil {
			bySize[c.Block.SizeIdx] = append(bySize[c.Block.SizeIdx], keyed{c: c, key: name})
		}
	}

	out := &Result{Sizes: make([]SizeStats, len(plan.Sizes))}
	for i, n := range plan.Sizes {
		out.Sizes[i].N = n
		comps := bySize[i]
		sort.Slice(comps, func(a, b int) bool {
			if comps[a].c.Block.T0 != comps[b].c.Block.T0 {
				return comps[a].c.Block.T0 < comps[b].c.Block.T0
			}
			return comps[a].c.Block.T1 < comps[b].c.Block.T1
		})
		var missing []TrialRange
		var prev TrialRange
		cur := 0
		for _, kc := range comps {
			c := kc.c
			if c.Block.T0 < cur {
				return nil, &OverlapError{N: n, A: prev,
					B: TrialRange{T0: c.Block.T0, T1: c.Block.T1}, Key: kc.key}
			}
			if c.Block.T0 > cur {
				missing = append(missing, TrialRange{T0: cur, T1: c.Block.T0})
			}
			prev = TrialRange{T0: c.Block.T0, T1: c.Block.T1}
			cur = c.Block.T1
		}
		if cur < shape.counts[i] {
			missing = append(missing, TrialRange{T0: cur, T1: shape.counts[i]})
		}
		if len(missing) > 0 {
			return nil, &IncompleteError{N: n, Missing: missing, Prefix: prefix}
		}
		for _, kc := range comps {
			out.Sizes[i].Merge(&kc.c.Stats)
		}
	}
	return out, nil
}
