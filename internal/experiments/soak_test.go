package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestSoakLargeSweeps runs the headline experiments at full paper scale.
// Skipped under -short; the regular suite uses reduced sweeps.
func TestSoakLargeSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	e2, err := Get("E2")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e2.Run(context.Background(), Config{Seed: 3, Sizes: []int{1 << 12, 1 << 14, 1 << 16}, Trials: 2})
	if err != nil {
		t.Fatalf("E2 soak: %v", err)
	}
	// Every row must keep the exact identity and the Θ(log n) constant.
	exactCol, avgCol, nCol := -1, -1, -1
	for i, c := range tab.Columns {
		switch c {
		case "exact":
			exactCol = i
		case "worstAvg":
			avgCol = i
		case "n":
			nCol = i
		}
	}
	for _, row := range tab.Rows {
		if row[exactCol] != "true" {
			t.Errorf("exact identity broken at scale: %v", row)
		}
		n, err := strconv.Atoi(row[nCol])
		if err != nil {
			t.Fatal(err)
		}
		avg, err := strconv.ParseFloat(row[avgCol], 64)
		if err != nil {
			t.Fatal(err)
		}
		// worstAvg ~ log2(n)/2 + O(1).
		predicted := math.Log2(float64(n)) / 2
		if math.Abs(avg-predicted) > 2 {
			t.Errorf("n=%d: worstAvg %v far from log2(n)/2 = %v", n, avg, predicted)
		}
	}

	e4, err := Get("E4")
	if err != nil {
		t.Fatal(err)
	}
	tab4, err := e4.Run(context.Background(), Config{Seed: 3, Sizes: []int{1 << 17}})
	if err != nil {
		t.Fatalf("E4 soak: %v", err)
	}
	for i, c := range tab4.Columns {
		if c != "cvMax" {
			continue
		}
		for _, row := range tab4.Rows {
			v, err := strconv.Atoi(row[i])
			if err != nil {
				t.Fatal(err)
			}
			if v > 8 {
				t.Errorf("CV radius %d at n=131072; log* plateau broken", v)
			}
		}
	}
}

// TestSoakLeasedUnequalWorkers drives the headline distributed experiments
// through the lease executor with three workers of deliberately unequal
// speed over a real directory store: before each grain, worker i sleeps
// slowdown[i] times the time it spent since its previous grain began, so
// the gap holds however slow the machine makes the grains themselves (the
// race detector alone stretches them by an order of magnitude). Two assertions: the merged tables are byte-identical to
// the single-process run, and the speed gap actually shifted the work —
// the fastest worker must have run more grains than the slowest, not
// waited on a fixed share. Skipped under -short like the other soaks.
func TestSoakLeasedUnequalWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cases := []struct {
		id  string
		cfg Config
	}{
		{"E2", Config{Seed: 3, Sizes: []int{1 << 10, 1 << 12}, Trials: 4}},
		{"E6", Config{Seed: 5, Sizes: []int{64, 256}, Trials: 40}},
		{"E10", Config{Seed: 7, Sizes: []int{5, 6}, Trials: 120}},
	}
	slowdown := []time.Duration{0, 1, 3}
	var perWorker [3]sweep.LeaseStats
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			e, err := Get(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sweep.NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg sync.WaitGroup
				mu sync.Mutex
			)
			errs := make([]error, len(slowdown))
			for i := range slowdown {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var last time.Time
					stats, err := RunLeasedSweeps(context.Background(), e, tc.cfg, st, sweep.LeaseOptions{
						Worker:        fmt.Sprintf("w%d", i),
						GrainsPerSize: 8,
						Poll:          time.Millisecond,
						Throttle: func(sweep.Block) {
							if !last.IsZero() {
								time.Sleep(slowdown[i] * time.Since(last))
							}
							last = time.Now()
						},
					})
					errs[i] = err
					mu.Lock()
					perWorker[i].Add(stats)
					mu.Unlock()
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}
			got, err := MergeLeased(e, tc.cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			if want.Render() != got.Render() {
				t.Errorf("leased soak table differs from single process\nwant:\n%s\ngot:\n%s",
					want.Render(), got.Render())
			}
		})
	}
	// Across the three experiments the unequal speeds must show in the
	// split: claims go to whoever reaches a free grain first.
	if fast, slow := perWorker[0], perWorker[len(slowdown)-1]; fast.Grains <= slow.Grains {
		t.Errorf("fastest worker ran %d grains, slowest %d; unequal workers never rebalanced: %+v",
			fast.Grains, slow.Grains, perWorker)
	}
}
