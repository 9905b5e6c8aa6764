package experiments

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/linial"
	"repro/internal/local"
	"repro/internal/sweep"
)

// e8 goes below the black box of §3: Theorem 1 consumes Linial's lower
// bound as given; here we compute its smallest concrete instances exactly.
// The neighbourhood graph N_r(s) is built explicitly and 3-coloured (or
// proven non-3-colourable) by exact search; feasible cases are turned into
// synthesized minimal-radius algorithms and executed on the simulator. None
// of this samples permutations, so E8 has no sweeps and does all its work
// in Tabulate. The exact searches are independent, so they run sharded via
// sweep.Map — the s=7 impossibility proof does not serialise behind the
// feasible cases.
func e8() Experiment {
	return Experiment{
		ID:     "E8",
		Title:  "Linial's bound, smallest instances: exact radius-1 feasibility thresholds",
		Claim:  "§3 uses Linial's Ω(log* n) as a black box; E8 recomputes its base cases exactly",
		Sweeps: func(Config) ([]sweep.Spec, error) { return nil, nil },
		Tabulate: func(cfg Config, _ []*sweep.Result) (*Table, error) {
			type q struct{ r, s int }
			cases := []q{
				{0, 4}, // K_4: radius 0 fails already at four identifiers
				{1, 4},
				{1, 5},
				{1, 6}, // the last feasible radius-1 space
				{1, 7}, // the exact impossibility threshold
			}
			type outcome struct {
				verdict   linial.Verdict
				simulated string
			}
			outs := make([]outcome, len(cases))
			if err := sweep.Map(context.Background(), cfg.Workers, len(cases), func(i int) error {
				c := cases[i]
				v, err := linial.ThreeColorable(c.s, c.r)
				if err != nil {
					return fmt.Errorf("E8 (s=%d,r=%d): %w", c.s, c.r, err)
				}
				outs[i].verdict = v
				outs[i].simulated = "-"
				if v.Usable && c.r == 1 {
					sim, err := runSynthesized(c.s)
					if err != nil {
						return fmt.Errorf("E8 synthesized (s=%d): %w", c.s, err)
					}
					outs[i].simulated = sim
				}
				return nil
			}); err != nil {
				return nil, err
			}
			t := &Table{
				Title:   "E8: exact 3-colourability of the neighbourhood graph N_r(s)",
				Columns: []string{"r", "s", "views", "edges", "algorithmExists", "simulated"},
			}
			for i, c := range cases {
				v := outs[i].verdict
				t.AddRow(ci(c.r), ci(c.s), ci(v.Views), ci(v.Edges), cb(v.Usable), cs(outs[i].simulated))
			}
			t.AddNote("radius-1 3-colouring exists iff the identifier space has at most 6 identifiers")
			t.AddNote("feasible tables run on the simulator at radius exactly 1 — minimal algorithms in the paper's sense")
			t.AddNote("monotonicity (N_r(s') ⊆ N_r(s) for s' <= s) extends s=7 impossibility to all larger spaces")
			return t, nil
		},
	}
}

// runSynthesized executes the synthesized radius-1 table once on the
// largest in-space ring (identifiers of C_n are 0..n-1, so n = s exactly
// uses the full space), verifies the colouring, and reports its radius
// profile.
func runSynthesized(s int) (string, error) {
	ta, err := linial.Synthesize(s, 1)
	if err != nil {
		return "", err
	}
	c, err := graph.NewCycle(s)
	if err != nil {
		return "", err
	}
	a := ids.Identity(s)
	res, err := local.RunView(c, a, ta)
	if err != nil {
		return "", err
	}
	if err := verifyColoring(c, a, res); err != nil {
		return "", err
	}
	return fmt.Sprintf("C_%d max=%d avg=%.1f", s, res.MaxRadius(), res.AvgRadius()), nil
}
