// Package serve is the online allocation service behind cmd/aged: it
// folds a request firehose into per-item demand estimates, re-solves the
// relaxed welfare optimum (Property 1 water-filling) incrementally when
// demand drifts, caches the per-utility ϕ/ψ tables the QCR reaction
// queries, and snapshots estimator+allocation state for crash recovery.
//
// The serving loop is: Estimator.Fold on every observation window →
// demand.DriftL1 against the demand at the last solve → past the
// threshold, Solver.Solve warm-starts numeric.WaterFillWarm from the
// previous allocation and dual level, falling back to the cold
// numeric.WaterFill whenever the warm result cannot be certified.
package serve

import (
	"fmt"
	"math"

	"impatience/internal/demand"
)

// Estimator folds windowed request counts into per-item EWMA rate
// estimates d̂_i (requests per second). The decay is parameterized by a
// half-life H: after H seconds without requests an item's estimated rate
// has halved, so w = 2^{−Δt/H} per window of length Δt. The struct is not
// goroutine-safe; Server serializes access.
type Estimator struct {
	rates    []float64 // d̂_i, req/s
	halfLife float64   // seconds
	// observed is the running total of requests folded since
	// construction/restore, fractional windows included; observedErr is
	// its Neumaier compensation, so ten windows of 0.8 add up to exactly 8.
	observed, observedErr float64
}

// NewEstimator builds an estimator over a catalog of items with the given
// half-life in seconds.
func NewEstimator(items int, halfLife float64) (*Estimator, error) {
	if items <= 0 {
		return nil, fmt.Errorf("serve: estimator needs a positive catalog size (got %d)", items)
	}
	if !(halfLife > 0) || math.IsInf(halfLife, 1) {
		return nil, fmt.Errorf("serve: estimator half-life %g, want finite > 0", halfLife)
	}
	return &Estimator{rates: make([]float64, items), halfLife: halfLife}, nil
}

// Items returns the catalog size.
func (e *Estimator) Items() int { return len(e.rates) }

// Observed returns the whole number of requests folded so far: the floor
// of the running total, so fractional windows count once they add up.
func (e *Estimator) Observed() uint64 { return uint64(e.observed + e.observedErr) }

// Fold incorporates one observation window: counts[i] requests for item i
// over window seconds. Every estimate decays by 2^{−window/halfLife} and
// the window's empirical rate counts[i]/window contributes the
// complementary weight, so a constant firehose converges to its true rate
// and an item that goes silent halves every half-life. Counts must be
// non-negative and finite; the estimator is untouched on error.
func (e *Estimator) Fold(counts []float64, window float64) error {
	if len(counts) != len(e.rates) {
		return fmt.Errorf("serve: fold of %d counts into a %d-item estimator", len(counts), len(e.rates))
	}
	if !(window > 0) || math.IsInf(window, 1) {
		return fmt.Errorf("serve: fold window %g sec, want finite > 0", window)
	}
	var total float64
	for i, c := range counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("serve: item %d count %g, want finite ≥ 0", i, c)
		}
		total += c
	}
	w := math.Exp2(-window / e.halfLife)
	for i, c := range counts {
		e.rates[i] = w*e.rates[i] + (1-w)*(c/window)
	}
	sum := e.observed + total
	if e.observed >= total {
		e.observedErr += e.observed - sum + total
	} else {
		e.observedErr += total - sum + e.observed
	}
	e.observed = sum
	return nil
}

// Snapshot returns the current rate estimates as a demand.Popularity,
// ready to weight a water-filling problem. The slice is a copy.
func (e *Estimator) Snapshot() demand.Popularity {
	return demand.Popularity{Rates: append([]float64(nil), e.rates...)}
}

// restore overwrites the estimator state from a snapshot; used by
// Server.Restore after validating the snapshot's config.
func (e *Estimator) restore(rates []float64, observed uint64) error {
	if len(rates) != len(e.rates) {
		return fmt.Errorf("serve: snapshot has %d rates for a %d-item estimator", len(rates), len(e.rates))
	}
	for i, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("serve: snapshot rate[%d]=%g invalid", i, r)
		}
	}
	copy(e.rates, rates)
	e.observed, e.observedErr = float64(observed), 0
	return nil
}
