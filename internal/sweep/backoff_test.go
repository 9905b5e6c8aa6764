package sweep

import (
	"context"
	"testing"
	"time"
)

// Delays must grow geometrically from base to the max cap, never exceed
// the un-jittered envelope, and never shrink below (1-jitter) of it.
func TestBackoffDelayEnvelope(t *testing.T) {
	b := backoff{base: 10 * time.Millisecond, max: 200 * time.Millisecond, factor: 2, jitter: 0.2, seed: 7}
	envelope := []time.Duration{10, 20, 40, 80, 160, 200, 200}
	for k, e := range envelope {
		e *= time.Millisecond
		d := b.delay(k)
		if d > e {
			t.Errorf("delay(%d) = %v exceeds envelope %v", k, d, e)
		}
		if lo := time.Duration(float64(e) * 0.8); d < lo {
			t.Errorf("delay(%d) = %v below jitter floor %v", k, d, lo)
		}
	}
	// The lease policy is the same envelope at factor 1.5 and an 8×poll
	// cap.
	lease := leaseBackoff(10*time.Millisecond, "w")
	if d := lease.delay(20); d > 80*time.Millisecond || d < 64*time.Millisecond {
		t.Errorf("lease delay(20) = %v, want within 20%% below the 80ms cap", d)
	}
}

// Equal (seed, attempt) pairs must yield equal delays — the determinism
// replayed chaos scenarios rely on — and distinct seeds should decorrelate.
func TestBackoffDeterministicJitter(t *testing.T) {
	a := leaseBackoff(10*time.Millisecond, "a")
	for k := 0; k < 8; k++ {
		if a.delay(k) != a.delay(k) {
			t.Fatalf("delay(%d) not deterministic", k)
		}
	}
	bt := leaseBackoff(10*time.Millisecond, "b")
	same := 0
	for k := 0; k < 8; k++ {
		if a.delay(k) == bt.delay(k) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("distinct worker ids produced identical jitter streams")
	}
}

// wait must return promptly with the context's error when cancelled
// mid-delay, and nil after an undisturbed wait.
func TestBackoffWaitContext(t *testing.T) {
	b := backoff{base: time.Millisecond, max: time.Millisecond, factor: 1}
	if err := b.wait(context.Background(), 0); err != nil {
		t.Fatalf("wait: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	slow := backoff{base: time.Hour, max: time.Hour, factor: 1}
	start := time.Now()
	if err := slow.wait(ctx, 0); err != context.Canceled {
		t.Fatalf("cancelled wait = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled wait blocked")
	}
}
