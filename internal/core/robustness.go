package core

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"gpluscircles/internal/report"
)

// RobustnessResult reports how the scorecard fares across independent
// seeds: a reproduction that only holds for one lucky seed is no
// reproduction at all.
type RobustnessResult struct {
	// Seeds lists the evaluated generator seeds.
	Seeds []int64
	// HeldPerSeed counts the claims that held for each seed.
	HeldPerSeed []int
	// TotalClaims is the scorecard size.
	TotalClaims int
	// FailuresByClaim counts, per claim ID, how many seeds failed it.
	FailuresByClaim map[string]int
}

// MeasureRobustness reruns the scorecard for `seeds` consecutive seeds
// at the suite's scale, fanning the seeds out over a worker pool sized
// to GOMAXPROCS. Each seed builds a fresh independent Suite (the
// receiver's cached data sets are not reused), so the per-seed runs
// share no mutable state and the result is identical to a serial run.
func MeasureRobustness(opts SuiteOptions, seeds int) (*RobustnessResult, error) {
	return MeasureRobustnessWorkers(opts, seeds, 0)
}

// seedOutcome is one seed's scorecard tally before the deterministic
// merge.
type seedOutcome struct {
	held      int
	total     int
	failedIDs []string
	err       error
}

// MeasureRobustnessWorkers is MeasureRobustness with an explicit worker
// count (workers <= 0 selects GOMAXPROCS; 1 runs serially). Per-seed
// outcomes land in a slice indexed by seed offset and are merged in seed
// order afterwards, so the result — including FailuresByClaim contents
// and the first error selected — is byte-for-byte independent of the
// worker count.
func MeasureRobustnessWorkers(opts SuiteOptions, seeds, workers int) (*RobustnessResult, error) {
	if seeds < 1 {
		seeds = 3
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > seeds {
		workers = seeds
	}
	base := opts.withDefaults()

	evalSeed := func(i int) seedOutcome {
		seedOpts := base
		seedOpts.Seed = base.Seed + int64(i)
		s := NewSuite(seedOpts)
		claims, err := Scorecard(s)
		if err != nil {
			return seedOutcome{err: fmt.Errorf("seed %d: %w", seedOpts.Seed, err)}
		}
		out := seedOutcome{total: len(claims)}
		for _, c := range claims {
			if c.Holds {
				out.held++
			} else {
				out.failedIDs = append(out.failedIDs, c.ID)
			}
		}
		return out
	}

	outcomes := make([]seedOutcome, seeds)
	if workers <= 1 {
		for i := range outcomes {
			outcomes[i] = evalSeed(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					outcomes[i] = evalSeed(i)
				}
			}()
		}
		for i := range outcomes {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	// Deterministic merge in seed order: the first failing seed's error
	// wins, exactly as the serial loop would have reported it.
	res := &RobustnessResult{FailuresByClaim: map[string]int{}}
	for i, out := range outcomes {
		if out.err != nil {
			return nil, out.err
		}
		for _, id := range out.failedIDs {
			res.FailuresByClaim[id]++
		}
		res.Seeds = append(res.Seeds, base.Seed+int64(i))
		res.HeldPerSeed = append(res.HeldPerSeed, out.held)
		res.TotalClaims = out.total
	}
	return res, nil
}

func runRobustness(s *Suite, w io.Writer) error {
	// Independent reruns at a reduced scale keep this experiment fast
	// while still exercising the full pipeline per seed.
	opts := s.Options()
	opts.Scale = opts.Scale * 0.4
	res, err := MeasureRobustness(opts, 3)
	if err != nil {
		return err
	}
	return renderRobustness(res, opts.Scale, w)
}

// renderRobustness writes the robustness table and failure notes. Split
// from runRobustness so tests can assert the rendering is byte-identical
// across worker counts.
func renderRobustness(res *RobustnessResult, scale float64, w io.Writer) error {
	tbl := report.NewTable(
		fmt.Sprintf("Scorecard robustness over %d seeds (scale %.2f)", len(res.Seeds), scale),
		"Seed", "Claims held")
	for i, seed := range res.Seeds {
		tbl.AddRow(fmt.Sprintf("%d", seed),
			fmt.Sprintf("%d / %d", res.HeldPerSeed[i], res.TotalClaims))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	if len(res.FailuresByClaim) == 0 {
		_, err := fmt.Fprintln(w, "\nEvery claim held for every seed.")
		if err != nil {
			return fmt.Errorf("robustness note: %w", err)
		}
		return nil
	}
	if _, err := fmt.Fprintln(w, "\nClaims that failed on some seed:"); err != nil {
		return fmt.Errorf("robustness note: %w", err)
	}
	// Sorted for deterministic output (TestRunAllParallelMatchesSerial
	// asserts the parallel report is byte-identical to the serial run).
	ids := make([]string, 0, len(res.FailuresByClaim))
	for id := range res.FailuresByClaim {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, err := fmt.Fprintf(w, "  %s: %d seed(s)\n", id, res.FailuresByClaim[id]); err != nil {
			return fmt.Errorf("robustness note: %w", err)
		}
	}
	return nil
}
