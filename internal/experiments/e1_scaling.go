package experiments

import (
	"fmt"
	"math"

	"fadingcr/internal/core"
	"fadingcr/internal/geom"
	"fadingcr/internal/runner"
	"fadingcr/internal/sim"
	"fadingcr/internal/stats"
	"fadingcr/internal/table"
)

// e1 — Figure 1: Theorem 1's Θ(log n) growth on feasible deployments.
func e1() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "Rounds vs n on uniform deployments (Theorem 1 shape)",
		Claim: "The fixed-probability algorithm resolves contention in Θ(log n) rounds w.h.p. when R = poly(n).",
		Run: func(cfg Config) ([]*table.Table, error) {
			ns := []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
			if cfg.Quick {
				ns = []int{16, 64, 256}
			}
			trials := cfg.trials(40, 8)

			results := table.New("E1 — rounds to solve vs n (fixed-probability on SINR)",
				"n", "trials", "mean±95%CI", "median", "p95", "max", "unsolved", "Δ median", "median/log₂n")
			var medians []float64
			prevMedian := math.NaN()
			for _, n := range ns {
				// Large deployments get fewer trials: the per-trial cost is
				// Θ(n²·log n) and the medians are stable.
				t := trials
				if n >= 2048 && t > 15 {
					t = 15
				}
				rounds, unsolved, err := sinrTrialRounds(cfg, t, n, core.FixedProbability{}, e1Budget(n))
				if err != nil {
					return nil, fmt.Errorf("E1 n=%d: %w", n, err)
				}
				s, err := stats.Summarize(rounds)
				if err != nil {
					return nil, err
				}
				medians = append(medians, s.Median)
				// Δ median per doubling is the sharp discriminator: a Θ(log n)
				// algorithm shows bounded increments, Θ(log² n) shows
				// increments growing linearly in log n.
				delta := "—"
				if !math.IsNaN(prevMedian) {
					delta = table.Float(s.Median-prevMedian, 1)
				}
				prevMedian = s.Median
				lo, hi, err := stats.MeanCI(rounds, 1.96)
				if err != nil {
					return nil, err
				}
				results.AddRow(table.Int(n), table.Int(t),
					fmt.Sprintf("%.1f±%.1f", s.Mean, (hi-lo)/2), table.Float(s.Median, 1),
					table.Float(stats.QuantileOf(rounds, 0.95), 1),
					table.Float(s.Max, 0), table.Int(unsolved),
					delta, table.Float(s.Median/math.Log2(float64(n)), 2))
			}

			growth, err := stats.CompareGrowth(ns, medians)
			if err != nil {
				return nil, err
			}
			fits := table.New("E1 — growth model comparison on median rounds (both fit well at this range; the Δ-median column above is the sharper discriminator)",
				"model", "a", "b", "R²", "RMSE", "winner")
			mark := func(win bool) string {
				if win {
					return "◀"
				}
				return ""
			}
			fits.AddRow("a + b·log₂(n)", table.Float(growth.Log.A, 2), table.Float(growth.Log.B, 2),
				table.Float(growth.Log.R2, 4), table.Float(growth.Log.RMSE, 2), mark(growth.LogWins()))
			fits.AddRow("a + b·log₂²(n)", table.Float(growth.Log2.A, 2), table.Float(growth.Log2.B, 2),
				table.Float(growth.Log2.R2, 4), table.Float(growth.Log2.RMSE, 2), mark(!growth.LogWins()))
			return []*table.Table{results, fits}, nil
		},
	}
}

// e1Budget is a generous per-run round cap: far above C·log n so unsolved
// runs genuinely indicate failure, not a tight budget.
func e1Budget(n int) int {
	return 400 + 100*int(math.Ceil(math.Log2(float64(n))))
}

// e2 — Figure 2: the additive log R term of Theorem 1.
func e2() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "Rounds vs number of link classes (the log R term)",
		Claim: "Round complexity grows additively in log R: O(log n + log R).",
		Run: func(cfg Config) ([]*table.Table, error) {
			classes := []int{1, 2, 4, 8, 12, 16, 20}
			if cfg.Quick {
				classes = []int{1, 4, 8}
			}
			const pairsPerClass = 3
			trials := cfg.trials(30, 8)

			results := table.New("E2 — rounds to solve vs link classes (exponential chain, 3 pairs/class)",
				"classes", "n", "log2(R)≈", "trials", "mean", "median", "p95", "unsolved")
			var xs, medians []float64
			for _, m := range classes {
				n := 2 * m * pairsPerClass
				rounds, unsolved, err := trialRounds(cfg, trials,
					func(seed uint64) (*geom.Deployment, error) {
						return geom.ExponentialChain(seed, m, pairsPerClass)
					},
					func(d *geom.Deployment) (sim.Channel, error) { return channelFor(cfg, DefaultParams(), d) },
					core.FixedProbability{},
					sim.Config{MaxRounds: e1Budget(n) + 40*m},
				)
				if err != nil {
					return nil, fmt.Errorf("E2 m=%d: %w", m, err)
				}
				s, err := stats.Summarize(rounds)
				if err != nil {
					return nil, err
				}
				// log2(R) from the last trial's deployment, rebuilt here:
				// the column must not depend on which trials this process
				// ran (sharded runs execute only some of them).
				dseed, _ := runner.TrialSeeds(cfg.Seed, trials-1)
				last, err := geom.ExponentialChain(dseed, m, pairsPerClass)
				if err != nil {
					return nil, fmt.Errorf("E2 m=%d: %w", m, err)
				}
				logR := math.Log2(last.R)
				xs = append(xs, float64(m))
				medians = append(medians, s.Median)
				results.AddRow(table.Int(m), table.Int(n), table.Float(logR, 1), table.Int(trials),
					table.Float(s.Mean, 1), table.Float(s.Median, 1),
					table.Float(stats.QuantileOf(rounds, 0.95), 1), table.Int(unsolved))
			}

			fit, err := stats.LinearFit(xs, medians)
			if err != nil {
				return nil, err
			}
			fits := table.New("E2 — linear fit of median rounds vs class count m (m ≈ log R)",
				"model", "a", "b", "R²", "RMSE")
			fits.AddRow("a + b·m", table.Float(fit.A, 2), table.Float(fit.B, 2),
				table.Float(fit.R2, 4), table.Float(fit.RMSE, 2))
			return []*table.Table{results, fits}, nil
		},
	}
}
