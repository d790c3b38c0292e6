package oracle

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickSuitePasses runs the CI-sized conformance suite at the default
// seed and requires every check to pass — this is the tier-1 guarantee
// that theory and simulation agree on this machine, not just that
// behavior is unchanged.
func TestQuickSuitePasses(t *testing.T) {
	var lines []string
	rep, err := Check(Config{Progress: func(s string) { lines = append(lines, s) }})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !rep.Pass {
		t.Errorf("quick suite failed:\n%s", rep.Summary())
	}
	if rep.Mode != "quick" {
		t.Errorf("mode = %q, want quick", rep.Mode)
	}
	if rep.Seed != 1 {
		t.Errorf("default seed = %d, want 1", rep.Seed)
	}
	want := []string{
		"meanfield-fixed-point", "greedy-relaxed-sandwich", "metamorphic",
		"welfare-ladder", "per-item-welfare", "delay-distribution-ks", "qcr-replica-balance",
	}
	if len(rep.Checks) != len(want) {
		t.Fatalf("%d checks, want %d", len(rep.Checks), len(want))
	}
	for i, name := range want {
		c := rep.Checks[i]
		if c.Name != name {
			t.Errorf("check %d = %q, want %q", i, c.Name, name)
		}
		if c.Pass && (c.Effect < 0 || c.Effect > 1) {
			t.Errorf("%s: passing check has out-of-range effect %g", c.Name, c.Effect)
		}
		if len(c.Details) == 0 {
			t.Errorf("%s: no detail lines", c.Name)
		}
		if c.Seed == 0 {
			t.Errorf("%s: no reproduction seed recorded", c.Name)
		}
	}
	if len(lines) != len(want) {
		t.Errorf("%d progress lines, want %d", len(lines), len(want))
	}

	// Round-trip the report through VERIFY.json.
	path := filepath.Join(t.TempDir(), "VERIFY.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if back.Mode != rep.Mode || back.Pass != rep.Pass || len(back.Checks) != len(rep.Checks) {
		t.Errorf("round-trip mismatch: %+v", back)
	}
	if !strings.Contains(rep.Summary(), "conformance PASS") {
		t.Errorf("summary misses verdict:\n%s", rep.Summary())
	}
}

// TestNegativeControl proves the gates have statistical power: simulating
// the uniform allocation while asserting the optimal allocation's closed
// form MUST fail the welfare ladder (and its per-item refinement). A
// harness that passes this configuration would pass anything.
func TestNegativeControl(t *testing.T) {
	rep, err := Check(Config{BreakAllocation: true})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.Pass {
		t.Fatalf("broken allocation passed the gates — the harness has no power:\n%s", rep.Summary())
	}
	if !rep.Broken {
		t.Error("report does not flag the negative-control mode")
	}
	failed := map[string]bool{}
	for _, c := range rep.Checks {
		if !c.Pass {
			failed[c.Name] = true
			if c.Effect <= 1 {
				t.Errorf("%s failed with effect %g ≤ 1", c.Name, c.Effect)
			}
		}
	}
	for _, name := range []string{"welfare-ladder", "per-item-welfare"} {
		if !failed[name] {
			t.Errorf("%s did not catch the broken allocation", name)
		}
	}
	// The analytic differentials don't involve the simulated allocation
	// and must keep passing — the control breaks one layer, not the world.
	for _, c := range rep.Checks {
		switch c.Name {
		case "meanfield-fixed-point", "greedy-relaxed-sandwich", "metamorphic", "qcr-replica-balance":
			if !c.Pass {
				t.Errorf("%s failed under the negative control; it should be unaffected", c.Name)
			}
		}
	}
}
