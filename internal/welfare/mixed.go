package welfare

import (
	"fmt"

	"impatience/internal/utility"
)

// Per-item delay-utilities. Section 3.2 allows each content item its own
// h_i (news flashes with a hard deadline next to software patches with a
// waiting cost); both evaluators accept an optional Utilities slice that
// overrides the shared Utility per item. All results of the paper
// (submodularity, concavity, greedy optimality, the balance condition)
// hold per item, so the solvers work unchanged.

// utilityFor returns item i's delay-utility.
func (h Homogeneous) utilityFor(i int) utility.Function {
	if h.ownUtility(i) {
		return h.Utilities[i]
	}
	return h.Utility
}

// ownUtility reports whether item i overrides the shared Utility.
func (h Homogeneous) ownUtility(i int) bool {
	return i < len(h.Utilities) && h.Utilities[i] != nil
}

// utilityFor returns item i's delay-utility.
func (s Hetero) utilityFor(i int) utility.Function {
	if s.ownUtility(i) {
		return s.Utilities[i]
	}
	return s.Utility
}

// ownUtility reports whether item i overrides the shared Utility.
func (s Hetero) ownUtility(i int) bool {
	return i < len(s.Utilities) && s.Utilities[i] != nil
}

// validateUtilities checks the optional per-item utility slice.
func validateUtilities(utilities []utility.Function, items int, pureP2P bool) error {
	if len(utilities) == 0 {
		return nil
	}
	if len(utilities) != items {
		return fmt.Errorf("welfare: %d per-item utilities for %d items", len(utilities), items)
	}
	if pureP2P {
		for i, f := range utilities {
			if f != nil && !utility.SupportsPureP2P(f) {
				return fmt.Errorf("welfare: item %d utility %s has unbounded h(0+); dedicated-node case only", i, f.Name())
			}
		}
	}
	return nil
}
