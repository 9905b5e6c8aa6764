package sweep

// backoff is the retry pacing of a lease executor: idle rescans while
// peers hold all remaining work, and retries of transient store faults.
//
// Delays grow exponentially with the attempt number, are capped at max,
// and carry deterministic jitter: the jitter for a given (seed, attempt)
// pair is a pure function, so replayed chaos scenarios pace identically.
// Executors sharing a store get decorrelation by seeding per worker.

import (
	"context"
	"hash/fnv"
	"math"
	"time"
)

// backoff computes the delay before retry attempt k (0-based). Methods are
// value receivers on an immutable policy: safe for concurrent use.
type backoff struct {
	// base is the delay before attempt 0.
	base time.Duration
	// max caps every delay.
	max time.Duration
	// factor is the per-attempt growth.
	factor float64
	// jitter is the fraction of each delay drawn back uniformly: the wait
	// lands in [d·(1−jitter), d].
	jitter float64
	// seed selects the deterministic jitter stream. Equal (seed, attempt)
	// pairs always produce equal delays.
	seed uint64
}

// leaseBackoff is the policy every lease executor paces with: base poll,
// ×1.5 growth, 8×poll cap and 20% jitter on a stream seeded from the
// worker id — deterministic per worker, decorrelated across executors.
func leaseBackoff(poll time.Duration, worker string) backoff {
	h := fnv.New64a()
	h.Write([]byte(worker))
	return backoff{base: poll, max: 8 * poll, factor: 1.5, jitter: 0.2, seed: h.Sum64()}
}

// delay returns attempt k's wait. It never blocks and is a pure function
// of the policy and k.
func (b backoff) delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := min(float64(b.base)*math.Pow(b.factor, float64(attempt)), float64(b.max))
	// splitmix64 of (seed, attempt) → uniform u in [0,1): deterministic per
	// pair, decorrelated across seeds.
	u := float64(splitmix64(b.seed^(uint64(attempt)+1)*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
	d *= 1 - b.jitter*u
	return time.Duration(max(d, 1))
}

// wait blocks for attempt k's delay or until the context fires, whichever
// is first, and returns the context's error so retry loops can bail on
// cancellation without a separate check.
func (b backoff) wait(ctx context.Context, attempt int) error {
	sleepCtx(ctx, b.delay(attempt))
	return ctx.Err()
}
