// Package oracle is the theory-vs-simulation conformance harness: it
// cross-validates the repository's three layers — the closed-form
// welfare of Table 1/Eqs. 2–5 (internal/welfare, internal/utility), the
// mean-field ODE of Section 5.2 (internal/meanfield) and the
// discrete-event simulator (internal/sim) — with statistical rigor.
//
// Golden digests pin that behavior has not changed; the oracle pins that
// behavior is right. Its checks fall in three groups:
//
//   - Analytic oracles: simulated welfare and per-item delay-utilities
//     against the closed forms, at a ladder of population sizes N. The
//     tolerances are confidence intervals computed from the trials —
//     they shrink as N grows (demand scales with N, pairwise contact
//     rate as µ̄/N), so the gate demonstrates mean-field convergence
//     rather than hiding behind a fixed fudge factor. Delay samples are
//     KS-tested against the exponential meeting model.
//   - Differential checks: QCR steady-state replica counts vs the
//     relaxed optimum of Property 1, the mean-field fixed point vs
//     water-filling on the balance condition, and the greedy/relaxed
//     welfare sandwich U(⌊x̃⌋) ≤ U(greedy) ≤ U(x̃).
//   - Metamorphic relations: the simulator on transformed inputs (time
//     rescaled by 2) must reproduce its own results bit-exactly, on
//     every contact generator and entry point.
//   - A negative control: Config.BreakAllocation simulates the uniform
//     allocation while asserting the optimal allocation's closed form;
//     the harness must fail, proving the gates have statistical power.
//
// cmd/ageverify runs the suite (-quick for CI, -full for nightly),
// writes VERIFY.json and exits nonzero on any violation.
package oracle

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// Config parameterizes a conformance run.
type Config struct {
	// Full switches from the CI-sized quick suite (~1–2 min on one core)
	// to the nightly ladder (N up to 1000, more trials).
	Full bool
	// Seed is the base seed; every check derives its trial seeds from it
	// via parallel.TrialSeed and records them in the report.
	Seed uint64
	// Workers bounds the trial worker pool (≤ 0 = GOMAXPROCS). Results
	// are worker-count invariant.
	Workers int
	// BreakAllocation is the negative control: the welfare ladder
	// simulates the uniform allocation while asserting the optimal
	// allocation's closed form. A healthy harness must FAIL.
	BreakAllocation bool
	// Hardened runs the QCR replica-balance check with the
	// adversary-hardened reaction (experiment.SchemeQCRH) instead of the
	// vanilla one. Under zero adversaries the hardening must not disturb
	// the Property-1 fixed point, so the same balance and welfare gates
	// apply unchanged.
	Hardened bool
	// Hybrid appends the two hybrid-engine checks: the mean-field fast
	// path (sim.RunHybrid) must land inside the full simulation's
	// confidence interval at every ladder rung and on every community
	// rung without falling back, and in Full mode it must beat the event
	// path by at least 20× at N = 10⁵.
	Hybrid bool
	// Progress, if non-nil, receives one line per completed check.
	Progress func(string)
}

// CheckResult is the outcome of one conformance check.
type CheckResult struct {
	Name string `json:"name"`
	Pass bool   `json:"pass"`
	// Effect is the check's headline effect size, normalized so that
	// values ≤ 1 pass and the magnitude says how close to the gate the
	// measurement landed (e.g. |mean−U|/tolerance, D/D_crit).
	Effect float64 `json:"effect"`
	// Seed reproduces the check: rerun with this base seed and the same
	// mode (quick/full) to regenerate identical trials.
	Seed       uint64   `json:"seed"`
	Details    []string `json:"details"`
	ElapsedSec float64  `json:"elapsed_sec"`
}

// Report is the structured outcome of a full conformance run; ageverify
// serializes it to VERIFY.json.
type Report struct {
	Mode       string        `json:"mode"` // "quick" or "full"
	Seed       uint64        `json:"seed"`
	Broken     bool          `json:"broken,omitempty"`   // negative-control mode
	Hardened   bool          `json:"hardened,omitempty"` // QCR check ran with the hardened reaction
	Hybrid     bool          `json:"hybrid,omitempty"`   // hybrid-vs-sim ladder included
	Pass       bool          `json:"pass"`
	Checks     []CheckResult `json:"checks"`
	ElapsedSec float64       `json:"elapsed_sec"`
}

// Summary renders a one-line-per-check text table.
func (r *Report) Summary() string {
	var b strings.Builder
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-28s %s  effect=%.3f  %5.1fs  seed=%d\n", c.Name, status, c.Effect, c.ElapsedSec, c.Seed)
		for _, d := range c.Details {
			fmt.Fprintf(&b, "    %s\n", d)
		}
	}
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "conformance %s (%s mode, %.1fs)\n", verdict, r.Mode, r.ElapsedSec)
	return b.String()
}

// WriteJSON writes the report to path (indented, trailing newline).
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// check is one named conformance check.
type check struct {
	name string
	run  func() CheckResult
}

// session is one conformance run in flight: the configuration, the mode
// parameters and the lazily shared welfare-ladder data (the per-item and
// KS checks reuse the top rung's instrumented trials instead of paying
// for them twice).
type session struct {
	cfg    Config
	p      params
	ladder *ladderData // computed on first use; err recorded inside
}

// checks lists the suite in execution order: cheap analytic differentials
// first (they fail fast on gross breakage), then the simulation ladders.
func (s *session) checks() []check {
	cs := []check{
		{"meanfield-fixed-point", s.checkMeanFieldFixedPoint},
		{"greedy-relaxed-sandwich", s.checkGreedyRelaxedSandwich},
		{"metamorphic", s.checkMetamorphic},
		{"welfare-ladder", s.checkWelfareLadder},
		{"per-item-welfare", s.checkPerItemWelfare},
		{"delay-distribution-ks", s.checkDelayKS},
		{"qcr-replica-balance", s.checkQCRBalance},
	}
	if s.cfg.Hybrid {
		cs = append(cs,
			check{"hybrid-vs-sim-ladder", s.checkHybridLadder},
			check{"hybrid-community", s.checkHybridCommunity})
	}
	return cs
}

// Check runs the full conformance suite and returns the structured
// report. It never returns a non-nil error for a conformance violation —
// those are reported per check (and flip Report.Pass); infrastructure
// failures (a simulation that errors out) are reported the same way so a
// partial run still yields a usable VERIFY.json.
func Check(cfg Config) (*Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p := quickParams()
	mode := "quick"
	if cfg.Full {
		p = fullParams()
		mode = "full"
	}
	s := &session{cfg: cfg, p: p}
	rep := &Report{Mode: mode, Seed: cfg.Seed, Broken: cfg.BreakAllocation, Hardened: cfg.Hardened, Hybrid: cfg.Hybrid, Pass: true}
	start := time.Now()
	for _, c := range s.checks() {
		t0 := time.Now()
		res := c.run()
		res.Name = c.name
		res.ElapsedSec = time.Since(t0).Seconds()
		if res.Seed == 0 {
			res.Seed = cfg.Seed
		}
		rep.Checks = append(rep.Checks, res)
		if !res.Pass {
			rep.Pass = false
		}
		if cfg.Progress != nil {
			status := "PASS"
			if !res.Pass {
				status = "FAIL"
			}
			cfg.Progress(fmt.Sprintf("%-28s %s (%.1fs)", c.name, status, res.ElapsedSec))
		}
	}
	rep.ElapsedSec = time.Since(start).Seconds()
	return rep, nil
}

// infraFail marks a check failed on an infrastructure error (simulation
// or solver failure, not a conformance violation).
func infraFail(res CheckResult, err error) CheckResult {
	res.Pass = false
	res.Details = append(res.Details, "ERROR "+err.Error())
	res.Effect = math.Inf(1)
	return res
}

// fail builds a failing assertion line; pass builds a passing one. Both
// keep the check code readable at the call site.
func assertLine(ok bool, format string, args ...any) (bool, string) {
	prefix := "ok   "
	if !ok {
		prefix = "FAIL "
	}
	return ok, prefix + fmt.Sprintf(format, args...)
}

// maxf is a small helper: the running maximum of effect sizes.
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
