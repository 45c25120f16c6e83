package fleet

import (
	"errors"
	"fmt"
	"sync"

	"codetomo/internal/markov"
	"codetomo/internal/tomography"
)

// BatchStreams turns per-mote, per-procedure sample sets into uplink
// rounds: each mote's stream is cut into `batches` slices, and round b is
// the concatenation of every mote's slice b in mote order. This models the
// base station receiving one upload round from the whole fleet at a time,
// and is deterministic for a fixed mote order.
func BatchStreams(perMote []map[int][]float64, batches int) map[int][][]float64 {
	if batches <= 0 {
		batches = 1
	}
	out := make(map[int][][]float64)
	procs := map[int]bool{}
	for _, m := range perMote {
		for p := range m {
			procs[p] = true
		}
	}
	for p := range procs {
		rounds := make([][]float64, batches)
		for _, m := range perMote {
			s := m[p]
			if len(s) == 0 {
				continue
			}
			chunk := (len(s) + batches - 1) / batches
			for b := 0; b < batches; b++ {
				lo := b * chunk
				if lo >= len(s) {
					break
				}
				hi := lo + chunk
				if hi > len(s) {
					hi = len(s)
				}
				rounds[b] = append(rounds[b], s[lo:hi]...)
			}
		}
		out[p] = rounds
	}
	return out
}

// ProcStream is one procedure's model plus its batched fleet samples,
// ready for streaming estimation.
type ProcStream struct {
	Name    string
	Model   *tomography.Model
	Batches [][]float64
}

// ProcOutcome is the streaming-estimation result for one procedure.
type ProcOutcome struct {
	Name  string
	Probs markov.EdgeProbs
	// Rounds is how many re-estimations ran before convergence stopped
	// them (or the stream ran out).
	Rounds int
	// Iterations is the total EM iterations across rounds (0 for non-EM
	// estimators).
	Iterations int
	// SampleCount is the number of duration samples absorbed.
	SampleCount int
	// Converged reports the estimate stopped moving before the stream
	// ended.
	Converged bool
	// Trimmed is how many samples the robust estimator discarded as
	// outliers (0 for non-robust estimators); Confident is its verdict on
	// whether the estimate should be acted on (always true otherwise).
	Trimmed   int
	Confident bool
}

// EstimateStreamsOn runs streaming estimation for every procedure on a
// caller-owned pool, so estimation can share the campaign's concurrency
// bound with simulation and model construction instead of claiming its
// own. Outcomes come back in input order; each stream is a pure function
// of its input, so the result is independent of pool size and scheduling.
func EstimateStreamsOn(pool *Pool, streams []ProcStream, est tomography.Estimator, tol float64, patience int) ([]ProcOutcome, error) {
	outcomes := make([]ProcOutcome, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		i, s := i, s
		pool.Go(&wg, func() {
			// Incremental handles the convergence-based early stop: once
			// the estimate settles, later batches are absorbed into the
			// sample accounting without re-estimating.
			inc := tomography.NewIncremental(s.Model, est, tol, patience)
			for _, batch := range s.Batches {
				if _, err := inc.Observe(batch); err != nil {
					if errors.Is(err, tomography.ErrNoSamples) {
						// An uplink round that delivered nothing for this
						// procedure: nothing to re-estimate yet.
						continue
					}
					errs[i] = fmt.Errorf("fleet: estimate %s: %w", s.Name, err)
					return
				}
			}
			outcomes[i] = ProcOutcome{
				Name:        s.Name,
				Probs:       inc.Probs(),
				Rounds:      inc.Rounds(),
				Iterations:  inc.Iterations(),
				SampleCount: inc.SampleCount(),
				Converged:   inc.Converged(),
				Trimmed:     inc.Trimmed(),
				Confident:   inc.Confident(),
			}
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outcomes, nil
}
