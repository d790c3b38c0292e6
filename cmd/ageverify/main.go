// Command ageverify runs the theory-vs-simulation conformance harness
// (internal/oracle): analytic oracles, differential checks and
// statistical gates that cross-validate the closed-form welfare, the
// mean-field ODE and the discrete-event simulator against each other.
//
// Usage:
//
//	ageverify -quick              # CI suite, ~1-2 minutes on one core
//	ageverify -full               # nightly ladder up to N=1000
//	ageverify -quick -break       # negative control: must FAIL
//	ageverify -quick -hybrid      # include the hybrid-engine checks
//	ageverify -full -hybrid       # ... and gate the hybrid speedup at N=10⁵
//	ageverify -out VERIFY.json    # where the structured report goes
//
// The exit status is 0 iff every check passed (with -break: iff the
// harness correctly failed).
package main

import (
	"flag"
	"fmt"
	"os"

	"impatience/internal/oracle"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "run the CI-sized suite (default if neither -quick nor -full)")
		full     = flag.Bool("full", false, "run the nightly ladder (N up to 1000, more trials)")
		brk      = flag.Bool("break", false, "negative control: simulate the uniform allocation while asserting the optimum; the suite must fail")
		hardened = flag.Bool("hardened", false, "run the QCR balance check with the adversary-hardened reaction; under zero adversaries it must pass the same gates")
		hybrid   = flag.Bool("hybrid", false, "append the hybrid-engine checks: the mean-field fast path must land inside the full simulation's CI at every rung (with -full, also ≥20x faster at N=1e5)")
		seed     = flag.Uint64("seed", 1, "base seed; all trial seeds derive from it")
		workers  = flag.Int("workers", 0, "trial worker pool (0 = GOMAXPROCS; results are worker-count invariant)")
		out      = flag.String("out", "VERIFY.json", "path for the structured report (empty = skip)")
	)
	flag.Parse()
	if *quick && *full {
		fmt.Fprintln(os.Stderr, "ageverify: -quick and -full are mutually exclusive")
		os.Exit(2)
	}
	cfg := oracle.Config{
		Full:            *full,
		Seed:            *seed,
		Workers:         *workers,
		BreakAllocation: *brk,
		Hardened:        *hardened,
		Hybrid:          *hybrid,
		Progress:        func(line string) { fmt.Println(line) },
	}
	rep, err := oracle.Check(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ageverify: %v\n", err)
		os.Exit(2)
	}
	fmt.Println()
	fmt.Print(rep.Summary())
	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			fmt.Fprintf(os.Stderr, "ageverify: write %s: %v\n", *out, err)
			os.Exit(2)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if *brk {
		// Negative control: the gates must have the power to catch a
		// deliberately wrong allocation.
		if rep.Pass {
			fmt.Fprintln(os.Stderr, "ageverify: NEGATIVE CONTROL PASSED THE GATES — the harness has no power")
			os.Exit(1)
		}
		fmt.Println("negative control correctly rejected")
		return
	}
	if !rep.Pass {
		os.Exit(1)
	}
}
