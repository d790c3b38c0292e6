package experiment

import (
	"reflect"
	"runtime"
	"testing"

	"impatience/internal/adversary"
	"impatience/internal/faults"
	"impatience/internal/parallel"
	"impatience/internal/synth"
	"impatience/internal/utility"
)

// The golden determinism tests pin the parallel trial engine's central
// guarantee: per-trial results are bit-identical at any worker count,
// because every RNG stream in a trial is a pure function of (scenario
// seed, trial index). They run each figure family's per-trial simulation
// at workers = 1, 4 and NumCPU and compare sim.Result digests — any
// scheduling dependence, shared mutable state, or float reduction whose
// order depends on workers shows up as a digest mismatch. They double as
// the behavior-identity certificate for the hot-path optimizations in
// internal/sim and internal/core (CI runs them under -race).

// goldenScenario is deliberately tiny: the point is determinism, not
// statistical power.
func goldenScenario() Scenario {
	sc := Default()
	sc.Nodes = 12
	sc.Items = 10
	sc.Rho = 3
	sc.Duration = 400
	sc.Trials = 3
	return sc
}

// mixDigest folds one result digest into a trial's running digest.
func mixDigest(acc, d uint64) uint64 { return parallel.SplitMix64(acc ^ d) }

// goldenFamily runs one figure family's simulations for a single trial
// and returns the combined digest of every sim.Result it produced.
type goldenFamily struct {
	name string
	run  func(trial int, seed uint64) (uint64, error)
}

// digestSchemes builds a per-trial runner that simulates every scheme on
// the trial's contact stream in one lockstep batch (exactly as the figure
// pipelines do, with the empirical mean rate as the ψ plug-in) and folds
// the result digests together.
func digestSchemes(sc Scenario, gen SourceGen, u utility.Function, schemes []string, series bool, plan func(trial int) *FaultPlan) func(trial int, seed uint64) (uint64, error) {
	return func(trial int, seed uint64) (uint64, error) {
		src, err := gen(seed)
		if err != nil {
			return 0, err
		}
		var p *FaultPlan
		if plan != nil {
			p = plan(trial)
		}
		results, err := sc.RunSchemesBatch(schemes, u, src, 0, uint64(trial), series, p)
		if err != nil {
			return 0, err
		}
		var acc uint64
		for _, res := range results {
			acc = mixDigest(acc, res.Digest())
		}
		return acc, nil
	}
}

func goldenFamilies() []goldenFamily {
	sc := goldenScenario()

	conf := synth.DefaultConference()
	conf.Nodes = sc.Nodes
	conf.Days = 1
	scConf := sc
	scConf.Duration = float64(conf.Days) * 1440

	veh := synth.DefaultVehicular()
	veh.Cabs = sc.Nodes
	veh.DurationMin = 240
	scVeh := sc
	scVeh.Duration = veh.DurationMin

	// Mirrors degradationSweep's per-trial fault seeding.
	faultPlan := func(trial int) *FaultPlan {
		fc := faults.Config{PLoss: 0.3, ChurnRate: 0.001, MeanDowntime: sc.Duration / 100}
		fc.Seed = sc.Seed*69069 + uint64(trial)*127
		return sc.Hardening(&fc)
	}

	return append([]goldenFamily{
		{"fig3-routing", digestSchemes(sc, sc.HomogeneousSources(), utility.Power{Alpha: 0},
			[]string{SchemeQCR, SchemeQCRWOM}, true, nil)},
		{"fig4-power", digestSchemes(sc, sc.HomogeneousSources(), utility.Power{Alpha: -1},
			[]string{SchemeQCR, SchemeOPT, SchemeUNI}, false, nil)},
		{"fig4-step", digestSchemes(sc, sc.HomogeneousSources(), utility.Step{Tau: 10},
			[]string{SchemeQCR, SchemeSQRT, SchemePROP, SchemeDOM}, false, nil)},
		{"fig5-conference", digestSchemes(scConf, ConferenceTraces(conf).Sourced(), utility.Step{Tau: 60},
			[]string{SchemeQCR, SchemeOPT}, false, nil)},
		{"fig6-vehicular", digestSchemes(scVeh, VehicularTraces(veh).Sourced(), utility.Exponential{Nu: 0.1},
			[]string{SchemeQCR, SchemeUNI}, false, nil)},
		{"xd-faults", digestSchemes(sc, sc.HomogeneousSources(), utility.Step{Tau: 10},
			[]string{SchemeQCR, SchemeOPT}, true, faultPlan)},
		// The comparison figures' homogeneous scheme mix: QCR against the
		// OPT and UNI competitors under the step utility.
		{"homogeneous", digestSchemes(sc, sc.HomogeneousSources(), utility.Step{Tau: 10},
			[]string{SchemeQCR, SchemeOPT, SchemeUNI}, false, nil)},
	}, goldenFamily{"xa-adversary", digestSchemes(sc, sc.HomogeneousSources(), utility.Power{Alpha: 0},
		[]string{SchemeQCR, SchemeQCRH, SchemeOPT}, true, adversaryPlan(sc))})
}

// adversaryPlan mirrors adversarySweep's per-trial adversary seeding:
// dishonest counter inflation, free-riders, and one mid-run popularity
// rotation.
func adversaryPlan(sc Scenario) func(trial int) *FaultPlan {
	return func(trial int) *FaultPlan {
		ac := adversary.Config{
			DishonestFrac: 0.25,
			Mult:          25,
			FreeRiderFrac: 0.25,
			Seed:          sc.Seed*50021 + uint64(trial)*127,
		}
		if s, err := synth.FlashCrowd(sc.Pop(), sc.Duration/2, sc.Duration, 1); err == nil {
			ac.Schedule = s
		}
		return &FaultPlan{Adversary: &ac}
	}
}

func TestGoldenDigestsWorkerInvariance(t *testing.T) {
	sc := goldenScenario()
	for _, fam := range goldenFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			run := func(workers int) []uint64 {
				t.Helper()
				out, err := parallel.RunTrials(sc.Trials, workers, sc.Seed, fam.run)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return out
			}
			ref := run(1)
			for _, w := range []int{4, runtime.NumCPU()} {
				got := run(w)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("workers=%d trial %d: digest %#x != %#x (worker-count dependence)", w, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestGoldenFiguresWorkerInvariance runs whole figure pipelines (trace
// generation, trials, merging, table assembly) at workers 1 vs 4 and
// requires exactly equal outputs — the end-to-end version of the digest
// test, covering every converted trial loop including its reduction.
func TestGoldenFiguresWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("figure pipelines are slow under -short")
	}
	sc := goldenScenario()
	cases := []struct {
		name string
		run  func(sc Scenario) (any, error)
	}{
		{"figure3", func(sc Scenario) (any, error) { return Figure3(sc) }},
		{"rewriting", func(sc Scenario) (any, error) { return AblationRewriting(sc, utility.Power{Alpha: 0}) }},
		{"dynamic-demand", func(sc Scenario) (any, error) { return DynamicDemand(sc, utility.Step{Tau: 10}) }},
		{"reactions", func(sc Scenario) (any, error) { return ReactionComparison(sc, utility.Power{Alpha: 0}) }},
		{"overhead", func(sc Scenario) (any, error) { return OverheadComparison(sc, utility.Power{Alpha: 0}) }},
		{"mixed-catalog", func(sc Scenario) (any, error) { return MixedCatalog(sc) }},
		{"kiosks", func(sc Scenario) (any, error) { return DedicatedKiosks(sc, sc.Nodes/3) }},
		{"adaptive", func(sc Scenario) (any, error) { return AdaptiveImpatience(sc, 0.1) }},
		{"degradation-loss", func(sc Scenario) (any, error) {
			return DegradationLoss(sc, utility.Step{Tau: 10}, []float64{0, 0.3})
		}},
		{"mass-failure", func(sc Scenario) (any, error) { return MassFailureRecovery(sc, utility.Step{Tau: 10}, 0.5) }},
		{"robustness-dishonest", func(sc Scenario) (any, error) {
			return RobustnessDishonest(sc, utility.Power{Alpha: 0}, []float64{0, 0.25}, 25)
		}},
		{"robustness-diurnal", func(sc Scenario) (any, error) {
			return RobustnessDiurnal(sc, utility.Step{Tau: 10}, []float64{1, 0.1})
		}},
		{"comparison", func(sc Scenario) (any, error) {
			return sc.RunComparison(utility.Step{Tau: 10}, sc.HomogeneousSources(),
				[]string{SchemeQCR, SchemeOPT, SchemeUNI})
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s1 := sc
			s1.Workers = 1
			ref, err := tc.run(s1)
			if err != nil {
				t.Fatal(err)
			}
			s4 := sc
			s4.Workers = 4
			got, err := tc.run(s4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("workers=4 result differs from workers=1:\nref: %+v\ngot: %+v", ref, got)
			}
		})
	}
}
