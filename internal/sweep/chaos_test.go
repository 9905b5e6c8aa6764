package sweep

// The chaos suite is the lease protocol's correctness argument made
// executable: whatever combination of worker kills, re-executed claims,
// replayed completions and torn store writes a scenario throws at a run,
// the surviving records must still collect to the bytes of a single
// uninterrupted Run. Scenarios are seeded and self-contained — a
// failure names its seed in the subtest name, so
//
//	go test -run 'TestChaosLeaseEquivalence/seed7' ./internal/sweep/
//
// replays exactly the failing schedule-independent scenario (worker
// counts, kill points, fault periods and delays all derive from the seed;
// only goroutine interleaving varies, which the protocol must tolerate by
// design). The deterministic protocol tests alongside pin each case of the
// claim rule — a slow peer, a dead peer, this executor's own leftover
// marker — individually.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLeasedSpeculateOnStraggler pins the slow-peer case: when the only
// remaining work is a grain a live peer is still running, an idle worker
// re-executes it after its patience rather than waiting forever, and the
// duplicate completion changes nothing.
func TestLeasedSpeculateOnStraggler(t *testing.T) {
	spec := cycleSpec(22, []int{8}, 6, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	claimed := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	var slowErr error
	go func() {
		defer wg.Done()
		_, slowErr = RunLeased(context.Background(), spec, st, LeaseOptions{
			Worker:        "slow",
			GrainsPerSize: 1, // the whole size is one grain
			Throttle: func(Block) {
				once.Do(func() { close(claimed) })
				time.Sleep(30 * time.Millisecond)
			},
		})
	}()
	<-claimed
	fast, err := RunLeased(context.Background(), spec, st, LeaseOptions{
		Worker:        "fast",
		GrainsPerSize: 1,
		Poll:          time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fast worker: %v", err)
	}
	wg.Wait()
	if slowErr != nil {
		t.Fatalf("slow worker: %v", slowErr)
	}
	if fast.Speculated == 0 {
		t.Errorf("fast worker never speculated: %+v", fast)
	}
	got, err := CollectLeased(st, "leaserun", mustPlanOf(spec))
	if err != nil {
		t.Fatalf("CollectLeased: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("speculated run differs from direct run\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestLeasedAdoptExpiredLease pins the dead-peer case: a crashed
// executor's claim markers (SIGKILL leaves them behind) hold back a live
// executor only for its patience; then it re-executes the claimed grains,
// leaving the dead executor's markers in place.
func TestLeasedAdoptExpiredLease(t *testing.T) {
	spec := cycleSpec(23, []int{10}, 24, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlanOf(spec)
	mem := NewMemStore()
	if err := ensureLeasePlan(mem, "leaserun", &leasePlan{Plan: plan, Grains: 6}); err != nil {
		t.Fatal(err)
	}
	const g = 4 // grainSize(24, 6)
	for t0 := 0; t0 < 24; t0 += g {
		if err := mem.Put(claimKey("leaserun", Block{T0: t0, T1: t0 + g}), []byte("dead")); err != nil {
			t.Fatal(err)
		}
	}
	scans, firstRun := 0, 0
	st := &faultingStore{Store: mem, onList: func(string) error { scans++; return nil }}
	stats, err := RunLeased(context.Background(), spec, st, LeaseOptions{
		Worker:        "healer",
		GrainsPerSize: 6,
		Poll:          time.Millisecond,
		Throttle: func(Block) {
			if firstRun == 0 {
				firstRun = scans
			}
		},
	})
	if err != nil {
		t.Fatalf("healer: %v", err)
	}
	if firstRun <= patience {
		t.Errorf("healer re-executed a claimed grain in pass %d, before %d idle passes", firstRun, patience)
	}
	if stats.Speculated != 24/g || stats.Claims != 0 || stats.Adopted != 0 {
		t.Errorf("healer stats %+v, want all %d dead-claimed grains re-executed", stats, 24/g)
	}
	if owner, err := mem.Get(claimKey("leaserun", Block{T0: 0, T1: g})); err != nil || string(owner) != "dead" {
		t.Errorf("dead executor's marker = %q, %v; a re-execution must leave it", owner, err)
	}
	got, err := CollectLeased(mem, "leaserun", plan)
	if err != nil {
		t.Fatalf("CollectLeased: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("re-executed run differs from direct run\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestLeasedAdoptOwnClaim pins the own-marker case: an uncovered grain
// carrying this executor's marker (a killed earlier run under the same
// worker id, or a completion write that failed) is re-executed on the
// spot. With an hour-long Poll, any wait for patience would hang the run.
func TestLeasedAdoptOwnClaim(t *testing.T) {
	spec := cycleSpec(29, []int{9}, 12, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlanOf(spec)
	st := NewMemStore()
	if err := ensureLeasePlan(st, "leaserun", &leasePlan{Plan: plan, Grains: 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(claimKey("leaserun", Block{T0: 3, T1: 6}), []byte("self")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stats, err := RunLeased(ctx, spec, st, LeaseOptions{Worker: "self", GrainsPerSize: 4, Poll: time.Hour})
	if err != nil {
		t.Fatalf("RunLeased: %v", err)
	}
	if stats.Adopted != 1 || stats.Claims != 3 || stats.Grains != 4 {
		t.Errorf("stats %+v, want the own-marked grain adopted and the other 3 claimed", stats)
	}
	got, err := CollectLeased(st, "leaserun", plan)
	if err != nil {
		t.Fatalf("CollectLeased: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("adopted run differs from direct run\nwant: %+v\ngot:  %+v", want, got)
	}
}

// chaosScenario is everything a seed determines about one chaos run.
type chaosScenario struct {
	spec       Spec
	grains     int
	tornPeriod int  // tear every nth done/-write (0: no faults)
	replay     bool // re-publish completions under a different worker id
	waves      [][]chaosWorker
}

type chaosWorker struct {
	killAfter int // cancel the worker's context after this many grains (0: immortal)
	delay     time.Duration
}

// scenarioFor derives a full scenario from a seed. The last wave is always
// clean — immortal workers, faults off — so every scenario terminates.
func scenarioFor(seed int64) chaosScenario {
	rng := rand.New(rand.NewSource(seed))
	nsizes := 1 + rng.Intn(2)
	sizes := make([]int, nsizes)
	for i := range sizes {
		sizes[i] = 6 + rng.Intn(9)
	}
	sc := chaosScenario{
		spec:       cycleSpec(seed, sizes, 12+rng.Intn(21), 2),
		grains:     3 + rng.Intn(6),
		tornPeriod: rng.Intn(4), // 0 or tear every 1st..3rd write
		replay:     rng.Intn(2) == 1,
	}
	waves := 2 + rng.Intn(3)
	for w := 0; w < waves; w++ {
		last := w == waves-1
		n := 2 + rng.Intn(3)
		wave := make([]chaosWorker, n)
		for i := range wave {
			wave[i].delay = time.Duration(rng.Intn(1500)) * time.Microsecond
			if !last && rng.Intn(2) == 0 {
				wave[i].killAfter = 1 + rng.Intn(5)
			}
		}
		sc.waves = append(sc.waves, wave)
	}
	return sc
}

// TestChaosLeaseEquivalence is the headline harness: every seeded scenario
// of kills, duplicates, re-executed claims and torn writes must end in a
// store whose CollectLeased equals the single-process Run byte for byte.
func TestChaosLeaseEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaosScenario(t, scenarioFor(seed))
		})
	}
}

func runChaosScenario(t *testing.T, sc chaosScenario) {
	t.Helper()
	want, err := Run(context.Background(), sc.spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	if sc.tornPeriod > 0 {
		// Tear every tornPeriod-th completion write — but with a bounded
		// per-object budget (one or two failures), so a write eventually
		// lands however unlucky the schedule: an unbounded fault would
		// starve immortal workers forever, which is a test-harness bug,
		// not a protocol finding.
		var mu sync.Mutex
		writes := 0
		doomed := make(map[string]int)
		st.FaultPuts(func(name string, data []byte) ([]byte, error) {
			if !strings.Contains(name, "/done/") {
				return data, nil
			}
			mu.Lock()
			defer mu.Unlock()
			writes++
			if budget, hit := doomed[name]; hit {
				if budget > 0 {
					doomed[name] = budget - 1
					return data[:len(data)/2], fmt.Errorf("chaos: torn write of %s", name)
				}
				return data, nil
			}
			if writes%sc.tornPeriod == 0 {
				doomed[name] = writes % 2 // this failure, plus maybe the retry
				return data[:len(data)/2], fmt.Errorf("chaos: torn write of %s", name)
			}
			return data, nil
		})
	}
	plan := mustPlanOf(sc.spec)
	for w, wave := range sc.waves {
		if w == len(sc.waves)-1 {
			st.FaultPuts(nil) // the last wave always lands its writes
		}
		var wg sync.WaitGroup
		errs := make([]error, len(wave))
		kills := make([]bool, len(wave))
		for i, cw := range wave {
			wg.Add(1)
			go func(i int, cw chaosWorker) {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				grains := 0
				var mu sync.Mutex
				_, err := RunLeased(ctx, sc.spec, st, LeaseOptions{
					Worker:        fmt.Sprintf("wave%d-w%d", w, i),
					GrainsPerSize: sc.grains,
					Poll:          time.Millisecond,
					Throttle: func(Block) {
						mu.Lock()
						grains++
						doomed := cw.killAfter > 0 && grains >= cw.killAfter
						mu.Unlock()
						if doomed {
							kills[i] = true
							cancel()
						}
						time.Sleep(cw.delay)
					},
				})
				errs[i] = err
			}(i, cw)
		}
		wg.Wait()
		for i, err := range errs {
			// A killed worker must die with its context's error; a worker
			// that outlived its kill budget (someone else finished the work
			// first) must exit cleanly.
			if kills[i] && err == nil {
				t.Fatalf("wave %d worker %d: killed but returned nil", w, i)
			}
			if !kills[i] && err != nil {
				t.Fatalf("wave %d worker %d: %v", w, i, err)
			}
		}
		if sc.replay {
			replayCompletions(t, st)
		}
		if got, err := CollectLeased(st, "leaserun", plan); err == nil {
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("wave %d: chaos run differs from direct run\nwant: %+v\ngot:  %+v", w, want, got)
			}
			return
		}
	}
	// The final wave is clean and immortal; reaching here means it exited
	// without covering the space — a protocol bug.
	_, err = CollectLeased(st, "leaserun", plan)
	t.Fatalf("store never became collectable: %v", err)
}

// replayCompletions models a duplicate publisher: existing completion
// records re-Put under another worker's name. The stats payload is
// untouched, so the merge must not care.
func replayCompletions(t *testing.T, st *MemStore) {
	t.Helper()
	names, err := st.List("leaserun/done/")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if i%3 != 0 {
			continue
		}
		data, err := st.Get(name)
		if err != nil {
			continue
		}
		c, derr := DecodeCompletion(bytes.NewReader(data))
		if derr != nil {
			continue
		}
		c.Worker = "replayer"
		var buf bytes.Buffer
		if err := EncodeCompletion(&buf, c); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(name, buf.Bytes()); err != nil {
			// Faulted stores may refuse the replay; that is chaos working.
			continue
		}
	}
}
