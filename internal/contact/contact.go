// Package contact generates synthetic contact traces from memoryless
// contact models: the continuous-time model (pairwise Poisson processes
// with intensities µ_{m,n}, Section 3.4) and the discrete-time model
// (independent Bernoulli(µ_{m,n}·δ) meetings per slot). Both models emit
// ordinary trace.Trace values, so the simulator treats synthetic and
// measured mobility identically.
package contact

import (
	"fmt"
	"math/rand/v2"

	"impatience/internal/trace"
)

// Generate draws a continuous-time trace of the given duration from the
// rate matrix: the superposition of all pairwise Poisson processes, which
// is itself Poisson with the total rate, with each event assigned to a
// pair proportionally to its intensity. It is the pair-CDF sampler
// (ReplayStream) drawing from rng, collected into a Trace.
func Generate(rm *trace.RateMatrix, duration float64, rng *rand.Rand) (*trace.Trace, error) {
	s, err := newCDFSampler(rm, duration, rng)
	if err != nil {
		return nil, err
	}
	return trace.Collect(s)
}

// GenerateHomogeneous draws a continuous-time trace where every pair
// meets at rate mu — the paper's homogeneous contact setting.
func GenerateHomogeneous(nodes int, mu, duration float64, rng *rand.Rand) (*trace.Trace, error) {
	return Generate(trace.UniformRates(nodes, mu), duration, rng)
}

// GenerateDiscrete draws a discrete-time trace: time advances in slots of
// length delta and each pair meets in each slot independently with
// probability µ_{m,n}·δ (capped at 1). Contacts are stamped at the end of
// their slot. This realizes the paper's discrete-time contact model.
func GenerateDiscrete(rm *trace.RateMatrix, duration, delta float64, rng *rand.Rand) (*trace.Trace, error) {
	if duration <= 0 || delta <= 0 {
		return nil, fmt.Errorf("contact: invalid duration %g / delta %g", duration, delta)
	}
	if _, err := validRates(rm); err != nil {
		return nil, err
	}
	tr := &trace.Trace{Nodes: rm.Nodes, Duration: duration}
	rates := rm.Rates()
	probs := make([]float64, len(rates))
	any := false
	for i, r := range rates {
		p := r * delta
		if p > 1 {
			p = 1
		}
		probs[i] = p
		if p > 0 {
			any = true
		}
	}
	if !any {
		return tr, nil
	}
	pairA := make([]int, len(rates))
	pairB := make([]int, len(rates))
	for a := 0; a < rm.Nodes; a++ {
		for b := a + 1; b < rm.Nodes; b++ {
			idx := trace.PairIndex(rm.Nodes, a, b)
			pairA[idx], pairB[idx] = a, b
		}
	}
	slots := int(duration / delta)
	for s := 1; s <= slots; s++ {
		t := float64(s) * delta
		if t > duration {
			break
		}
		for idx, p := range probs {
			if p > 0 && rng.Float64() < p {
				tr.Contacts = append(tr.Contacts, trace.Contact{T: t, A: pairA[idx], B: pairB[idx]})
			}
		}
	}
	return tr, nil
}
