package experiment

import (
	"strings"
	"testing"

	"impatience/internal/alloc"
	"impatience/internal/sim"
	"impatience/internal/utility"
)

// fakeBins returns n one-minute bins whose gain, mandates and replica
// snapshot all encode the trial, so a column read off the wrong scheme
// or averaged in the wrong order shows in the means.
func fakeBins(n, trial, scheme int) []sim.Bin {
	bins := make([]sim.Bin, n)
	for i := range bins {
		v := float64(10*trial + scheme + i)
		bins[i] = sim.Bin{
			T0: float64(i), T1: float64(i + 1),
			Gain: v, Mandates: int(v),
			Counts: alloc.Counts{int(v), 1, 1, 1, 1, 1},
		}
	}
	return bins
}

// fakeRunner plays a two-scheme trial whose bin counts come from
// bins[trial] (one count per scheme).
func fakeRunner(bins [][2]int) seriesRunner {
	return func(trial int, _ uint64) ([]*sim.Result, error) {
		return []*sim.Result{
			{Bins: fakeBins(bins[trial][0], trial, 0)},
			{Bins: fakeBins(bins[trial][1], trial, 1)},
		}, nil
	}
}

// figure3Shape is a Figure-3-shaped spec: several tables mixing both
// schemes' bin columns with constants.
func figure3Shape() []seriesTable {
	var reps []seriesCol
	for r := 0; r < 5; r++ {
		reps = append(reps, binCol("rep", 0, replicas(r)))
	}
	return []seriesTable{
		{"observed", []seriesCol{binCol("A", 0, observedRate), binCol("B", 1, observedRate), constCol("C", 7)}},
		{"replicas", reps},
		{"mandates", []seriesCol{binCol("A", 0, pendingMandates), binCol("B", 1, pendingMandates)}},
	}
}

// TestTimeSeriesAveragesInTrialOrder: every column is the trial mean of
// its reader over its own scheme's bins, constants fill every bin, and
// X is the first trial's bin start times — at any worker count.
func TestTimeSeriesAveragesInTrialOrder(t *testing.T) {
	for _, w := range []int{1, 4} {
		sc := Scenario{Trials: 3, Workers: w}
		tables, err := sc.timeSeries(fakeRunner([][2]int{{4, 4}, {4, 4}, {4, 4}}), figure3Shape(), nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(tables) != 3 {
			t.Fatalf("workers=%d: %d tables, want 3", w, len(tables))
		}
		for i, x := range tables[0].X {
			if x != float64(i) {
				t.Fatalf("workers=%d: X[%d] = %g, want the bin start %d", w, i, x, i)
			}
		}
		// Trials 0, 1, 2 contribute 10·trial + scheme + bin: mean 10 + scheme + bin.
		obs, man, rep := tables[0].Columns, tables[2].Columns, tables[1].Columns
		for i := range tables[0].X {
			for k := 0; k < 2; k++ {
				want := float64(10 + k + i)
				if obs[k].Y[i] != want || man[k].Y[i] != want {
					t.Errorf("workers=%d scheme %d bin %d: observed %g, mandates %g, want %g", w, k, i, obs[k].Y[i], man[k].Y[i], want)
				}
			}
			if obs[2].Y[i] != 7 {
				t.Errorf("workers=%d: constant column %g at bin %d", w, obs[2].Y[i], i)
			}
			if rep[0].Y[i] != float64(10+i) || rep[1].Y[i] != 1 {
				t.Errorf("workers=%d bin %d: replicas %g, %g", w, i, rep[0].Y[i], rep[1].Y[i])
			}
		}
	}
}

// TestTimeSeriesRejectsMismatchedTrials: a trial whose bin count differs
// from the first trial's must fail the figure with an error naming that
// trial, not yield a table with a missing or empty column — whichever
// scheme and table the short or long series belongs to.
func TestTimeSeriesRejectsMismatchedTrials(t *testing.T) {
	for _, tc := range []struct {
		name string
		bins [][2]int
	}{
		{"first-scheme-short", [][2]int{{4, 4}, {4, 4}, {3, 4}}},
		{"second-scheme-long", [][2]int{{4, 4}, {4, 4}, {4, 5}}},
	} {
		sc := Scenario{Trials: 3, Workers: 1}
		_, err := sc.timeSeries(fakeRunner(tc.bins), figure3Shape(), nil)
		if err == nil {
			t.Errorf("%s: mismatched trial accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "trial 2") {
			t.Errorf("%s: error %q does not name trial 2", tc.name, err)
		}
	}
	// Explicit X labels must match the series length too.
	sc := Scenario{Trials: 2, Workers: 1}
	if _, err := sc.timeSeries(fakeRunner([][2]int{{4, 4}, {4, 4}}), figure3Shape(), make([]float64, 5)); err == nil {
		t.Error("4-bin series accepted under 5 X labels")
	}
}

// TestTrialsBelowOneRejected: a scenario without trials is an error that
// names Trials, on every kind of figure — not an empty table, a NaN
// series or a zero-sample summary that looks like a result.
func TestTrialsBelowOneRejected(t *testing.T) {
	sc := tiny()
	sc.Trials = 0
	step := utility.Step{Tau: 10}
	for name, run := range map[string]func() error{
		"RunComparison": func() error {
			_, err := sc.RunComparison(step, sc.HomogeneousSources(), []string{SchemeQCR, SchemeOPT})
			return err
		},
		"MassFailureRecovery": func() error {
			_, err := MassFailureRecovery(sc, step, 0.5)
			return err
		},
		"Figure3": func() error {
			_, err := Figure3(sc)
			return err
		},
		"MixedCatalog": func() error {
			_, err := MixedCatalog(sc)
			return err
		},
	} {
		err := run()
		if err == nil {
			t.Errorf("%s: Trials = 0 accepted", name)
		} else if !strings.Contains(err.Error(), "Trials") {
			t.Errorf("%s: error %q does not name Trials", name, err)
		}
	}
}
