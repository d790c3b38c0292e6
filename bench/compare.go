package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of a parent/change comparison of one metric on one workload.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"
)

// minPairs is the fewest parent/change pairs a gain can rest on.
const minPairs = 10

// judge compares the change's runs of one metric against the parent's.
// Run i of each side forms pair i; the caller alternates which side runs
// first. A gain needs at least minPairs pairs, the change winning at
// least nine in ten, and a median gap wider than the parent's IQR. A
// regression is a median worse than the parent's by more than the bound
// and by more than the metric's absolute floor.
// When the parent's own spread exceeds the bound the metric is
// unresolved, unless every change run beats every parent run.
func judge(d metricDef, parent, change []float64) (verdict string, wins, pairs int) {
	better := func(c, p float64) bool {
		if d.Better == "higher" {
			return c > p
		}
		return c < p
	}
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	p1, pm, p3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	worse := (cm - pm) / math.Abs(pm)
	if d.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case pairs >= minPairs && 10*wins >= 9*pairs && math.Abs(cm-pm) > p3-p1 && better(cm, pm):
		return verdictGain, wins, pairs
	case (p3-p1)/math.Abs(pm) > d.Bound && p3-p1 > d.Floor && !allBetter:
		return verdictUnresolved, wins, pairs
	case worse > d.Bound && math.Abs(cm-pm) > d.Floor:
		return verdictRegression, wins, pairs
	}
	return verdictSame, wins, pairs
}

// loadRuns reads one -repeat output, or the runs of every file a glob
// pattern matches, concatenated in file-name order; that is how runs
// made one at a time, alternating with the other side, are compared.
func loadRuns(pattern string) (*runsFile, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no runs file matches %s", pattern)
	}
	sort.Strings(paths)
	all := &runsFile{Runs: map[string][]*Result{}}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf runsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all.Provenance = rf.Provenance
		for w, runs := range rf.Runs {
			all.Runs[w] = append(all.Runs[w], runs...)
		}
	}
	return all, nil
}

func values(runs []*Result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints one row per workload comparing every end-to-end
// metric of two -repeat outputs, and reports whether any regressed.
func compareFiles(w io.Writer, parentPath, changePath string) (bool, error) {
	parent, err := loadRuns(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "parent %s vs change %s\n", parent.Provenance.Commit, change.Provenance.Commit)
	for _, wl := range workloads {
		parentRuns, changeRuns := parent.Runs[wl.name], change.Runs[wl.name]
		if len(parentRuns) == 0 || len(changeRuns) == 0 {
			continue
		}
		var cells []string
		for _, d := range endToEnd {
			pv, cv := values(parentRuns, d.Name), values(changeRuns, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v, wins, pairs := judge(d, pv, cv)
			regressed = regressed || v == verdictRegression
			_, pm, _ := quartiles(pv)
			_, cm, _ := quartiles(cv)
			cells = append(cells, fmt.Sprintf("%s %s (%.4g→%.4g %s, %d/%d wins)", d.Name, v, pm, cm, d.Unit, wins, pairs))
		}
		fmt.Fprintf(w, "%-13s %s\n", wl.name, strings.Join(cells, "; "))
	}
	return regressed, nil
}
