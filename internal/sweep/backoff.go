package sweep

// Backoff is the retry-pacing policy of everything in the engine that
// waits on a flaky or busy medium: lease executors riding out transient
// store faults and idle executors pacing their rescans. One policy type
// instead of scattered fixed sleeps.
//
// Delays grow exponentially with the attempt number, are capped at Max,
// and carry deterministic jitter: the jitter for a given (Seed, attempt)
// pair is a pure function, so replayed chaos scenarios pace identically.
// Executors sharing a store get decorrelation by seeding per worker
// (RunLeased hashes the worker id).

import (
	"context"
	"math"
	"time"
)

// Backoff computes the delay before retry attempt k (0-based). The zero
// value is a usable default policy (25ms base, ×2 growth, 2s cap, 20%
// jitter). Methods are value receivers on an immutable policy: safe for
// concurrent use.
type Backoff struct {
	// Base is the delay before attempt 0 (default 25ms).
	Base time.Duration
	// Max caps every delay (default 80×Base).
	Max time.Duration
	// Factor is the per-attempt growth (default 2; values <= 1 freeze the
	// delay at Base — a fixed-interval policy).
	Factor float64
	// Jitter is the fraction of each delay drawn back uniformly: the wait
	// lands in [d·(1−Jitter), d]. 0 means the default 0.2; negative
	// disables jitter entirely.
	Jitter float64
	// Seed selects the deterministic jitter stream. Equal (Seed, attempt)
	// pairs always produce equal delays.
	Seed uint64
}

// Delay returns attempt k's wait. It never blocks and is a pure function
// of the policy and k.
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 80 * base
	}
	factor := b.Factor
	if factor <= 0 {
		factor = 2
	}
	if factor < 1 {
		factor = 1
	}
	if attempt < 0 {
		attempt = 0
	}
	d := float64(base) * math.Pow(factor, float64(attempt))
	if d > float64(max) {
		d = float64(max)
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		if jitter > 1 {
			jitter = 1
		}
		// splitmix64 of (Seed, attempt) → uniform u in [0,1): deterministic
		// per pair, decorrelated across seeds.
		u := float64(splitmix64(b.Seed^(uint64(attempt)+1)*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
		d *= 1 - jitter*u
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Wait blocks for attempt k's delay or until the context fires, whichever
// is first, and returns the context's error so retry loops can bail on
// cancellation without a separate check.
func (b Backoff) Wait(ctx context.Context, attempt int) error {
	sleepCtx(ctx, b.Delay(attempt))
	return ctx.Err()
}

// withBase returns the policy with Base (and, if unset, Max) derived from
// d — how lease executors turn their Poll interval into an idle-scan
// policy without configuring a second duration.
func (b Backoff) withBase(d time.Duration) Backoff {
	if b.Base <= 0 {
		b.Base = d
		if b.Max <= 0 {
			b.Max = 8 * d
		}
	}
	return b
}
