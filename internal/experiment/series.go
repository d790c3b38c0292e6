package experiment

import (
	"fmt"

	"impatience/internal/plot"
	"impatience/internal/sim"
	"impatience/internal/stats"
	"impatience/internal/welfare"
)

// This file is the time-series pipeline behind every binned figure
// (Figures 3 and 5a, x4, xm and the hybrid xh): a figure supplies a
// per-trial runner and its tables as lists of columns, and timeSeries
// plays the trials, reduces each one to its column series inside the
// trial's worker and averages them in trial order.

// binReader reads one value off a time-series bin.
type binReader func(sim.Bin) float64

// observedRate is a bin's realized gain per minute.
func observedRate(b sim.Bin) float64 { return b.Gain / (b.T1 - b.T0) }

// pendingMandates is the number of mandates pending at a bin's end.
func pendingMandates(b sim.Bin) float64 { return float64(b.Mandates) }

// expectedWelfare is the welfare h assigns to a bin's replica snapshot
// (0 for a bin without one).
func expectedWelfare(h welfare.Homogeneous) binReader {
	return func(b sim.Bin) float64 {
		if b.Counts == nil {
			return 0
		}
		return h.WelfareCounts(b.Counts)
	}
}

// replicas is the replica count of the item of popularity rank r (0 for
// a bin without a snapshot).
func replicas(r int) binReader {
	return func(b sim.Bin) float64 {
		if r >= len(b.Counts) {
			return 0
		}
		return float64(b.Counts[r])
	}
}

// seriesCol is one column of a time-series table: the trial mean of a
// bin value read off scheme k's result, or a constant when read is nil.
type seriesCol struct {
	name  string
	k     int
	read  binReader
	value float64
}

// binCol is the column of read over scheme k's bins.
func binCol(name string, k int, read binReader) seriesCol {
	return seriesCol{name: name, k: k, read: read}
}

// constCol is a column holding v at every bin.
func constCol(name string, v float64) seriesCol {
	return seriesCol{name: name, value: v}
}

// seriesTable is one table of a time-series figure.
type seriesTable struct {
	title string
	cols  []seriesCol
}

// seriesRunner plays one trial and returns each scheme's binned result.
type seriesRunner func(trial int, seed uint64) ([]*sim.Result, error)

// trialSeries is one trial reduced to what its tables read: the bin
// start times and, per table and column, one value per bin (nil for a
// constant column).
type trialSeries struct {
	times []float64
	cols  [][][]float64
}

// reduceSeries reads every bin column of tables off one trial's results.
func reduceSeries(results []*sim.Result, tables []seriesTable) trialSeries {
	ts := trialSeries{cols: make([][][]float64, len(tables))}
	for _, b := range results[0].Bins {
		ts.times = append(ts.times, b.T0)
	}
	for ti, tb := range tables {
		ts.cols[ti] = make([][]float64, len(tb.cols))
		for ci, c := range tb.cols {
			if c.read == nil {
				continue
			}
			bins := results[c.k].Bins
			y := make([]float64, len(bins))
			for i, b := range bins {
				y[i] = c.read(b)
			}
			ts.cols[ti][ci] = y
		}
	}
	return ts
}

// timeSeries plays sc.Trials trials of run and returns one table per
// entry of tables, each column averaged across trials in trial order
// (stats.MergeTrials). X is the first trial's bin start times unless x
// is non-nil. A trial whose bins do not line up with the first trial's
// fails the figure with an error naming it.
func (sc Scenario) timeSeries(run seriesRunner, tables []seriesTable, x []float64) ([]*plot.Table, error) {
	outs, err := runTrials(sc, func(trial int, seed uint64) (trialSeries, error) {
		results, err := run(trial, seed)
		if err != nil {
			return trialSeries{}, err
		}
		return reduceSeries(results, tables), nil
	})
	if err != nil {
		return nil, err
	}
	times := outs[0].times
	if x == nil {
		x = times
	}
	out := make([]*plot.Table, len(tables))
	for ti, tb := range tables {
		table := &plot.Table{Title: tb.title, XLabel: "time (min)", X: x}
		for ci, c := range tb.cols {
			var y []float64
			if c.read == nil {
				y = constant(len(x), c.value)
			} else {
				trials := make([][]float64, len(outs))
				for t, o := range outs {
					trials[t] = o.cols[ti][ci]
				}
				s, err := stats.MergeTrials(times, trials)
				if err != nil {
					return nil, fmt.Errorf("experiment: %s: %s: %w", tb.title, c.name, err)
				}
				y = s.Mean
			}
			if err := table.AddColumn(c.name, y); err != nil {
				return nil, err
			}
		}
		out[ti] = table
	}
	return out, nil
}

// oneSeries unwraps the single table of a one-table figure.
func oneSeries(tables []*plot.Table, err error) (*plot.Table, error) {
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

func constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
