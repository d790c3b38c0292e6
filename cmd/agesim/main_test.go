package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"impatience/internal/experiment"
	"impatience/internal/synth"
)

// small is a command line cheap enough for a unit test.
var small = []string{"-nodes", "12", "-items", "10", "-rho", "3", "-duration", "600"}

func opts(args ...string) options {
	return parseOptions(append(append([]string(nil), small...), args...))
}

// capture runs the command and returns what it printed to stdout.
func capture(t *testing.T, o options) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(o)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFlagConflictsNameTheirCause: each invalid combination fails before
// any simulation, with an error that names the offending flag or value.
func TestFlagConflictsNameTheirCause(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"hybrid-without-rates", []string{"-hybrid"}, "-hybrid requires -rates"},
		{"rates-with-stream", []string{"-rates", "community:n=100,c=2,in=0.01,out=0.001", "-stream"}, "-rates and -stream"},
		{"rates-with-trace", []string{"-rates", "community:n=100,c=2,in=0.01,out=0.001", "-trace", "conference"}, `-rates replaces -trace (got -trace "conference")`},
		{"unknown-scheme", []string{"-scheme", "nope"}, `unknown scheme "nope"`},
		{"trace-file-without-path", []string{"-trace", "file"}, "-trace file requires -trace-file"},
	} {
		err := run(opts(tc.args...))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestRunDeterministic: the same options print the same report, for the
// single-trial path with faults and adversaries on, a synthetic trace
// and the multi-trial path.
func TestRunDeterministic(t *testing.T) {
	for _, args := range [][]string{
		{"-scheme", "qcr", "-ploss", "0.2", "-churn", "0.002", "-dishonest-frac", "0.2"},
		{"-scheme", "prop", "-trace", "vehicular"},
		{"-scheme", "qcr", "-trials", "3", "-workers", "2"},
	} {
		a, b := capture(t, opts(args...)), capture(t, opts(args...))
		if a != b {
			t.Errorf("%v: two runs differ:\n%s\n---\n%s", args, a, b)
		}
		if !strings.Contains(a, "avg utility") {
			t.Errorf("%v: report without a utility line:\n%s", args, a)
		}
	}
}

// TestSingleTrialTraceRule: the single-trial path draws the synthetic
// trace the experiment generators draw at the run seed.
func TestSingleTrialTraceRule(t *testing.T) {
	cfg := synth.DefaultVehicular()
	cfg.Cabs = 12
	tr, err := experiment.VehicularTraces(cfg)(7)
	if err != nil {
		t.Fatal(err)
	}
	out := capture(t, opts("-trace", "vehicular", "-seed", "7"))
	want := fmt.Sprintf("%d nodes, %.0f min, %d contacts", tr.Nodes, tr.Duration, len(tr.Contacts))
	if !strings.Contains(out, want) {
		t.Errorf("report does not describe the generator's trace (%s):\n%s", want, out)
	}
}
