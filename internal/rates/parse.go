package rates

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrSpec is wrapped by every spec-syntax failure in ParseRates (unknown
// kind, unknown or duplicate key, malformed number). Model-semantic
// failures (negative rates, empty communities, …) surface as ErrModel
// from the constructors instead, so callers can tell "you typed it
// wrong" from "that model is invalid".
var ErrSpec = errors.New("rates: invalid spec")

// Parse-level resource caps. Model construction is O(N + C²), so a spec
// that smuggles in a huge population or community grid would allocate
// gigabytes before any semantic check could reject it; the parser bounds
// both at generous multiples of the million-node target instead. Direct
// constructor callers are not capped — the limits are a CLI guard, not a
// model property.
const (
	maxSpecNodes = 16 << 20 // 16·2²⁰ ≈ 16.8M nodes
	maxSpecComms = 4096     // C² block entries ≤ 16.8M
)

// ParseRates builds a structured rate model from a one-line spec of the
// form kind:key=value,key=value,…:
//
//	community:n=1000,c=8,in=0.5,out=0.01
//	hubspoke:n=1000,hubs=10,hh=0.5,hs=0.1,ss=0.001
//	distance:n=1000,cells=8x8,mu0=0.1,lambda=500,w=4000,h=4000,seed=1
//
// n is required; every other key has the default shown by DefaultSpecs.
// This is the CLI surface of the package (agesim -rates, agetrace
// -kind structured), so it is fuzzed: no input may panic, and every rejection
// wraps ErrSpec or ErrModel.
func ParseRates(spec string) (*Model, error) {
	kind, rest, found := strings.Cut(spec, ":")
	if !found {
		return nil, fmt.Errorf("%w: %q has no kind: prefix", ErrSpec, spec)
	}
	kv, err := parseKV(rest)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "community":
		cfg := CommunityConfig{Communities: 8, In: 0.5, Out: 0.01}
		err := takeKeys(kv, map[string]func(string) error{
			"n":   intKey(&cfg.Nodes),
			"c":   intKey(&cfg.Communities),
			"in":  floatKey(&cfg.In),
			"out": floatKey(&cfg.Out),
		})
		if err != nil {
			return nil, err
		}
		if err := specCap("n", cfg.Nodes, maxSpecNodes); err != nil {
			return nil, err
		}
		if err := specCap("c", cfg.Communities, maxSpecComms); err != nil {
			return nil, err
		}
		return NewCommunity(cfg)
	case "hubspoke":
		cfg := HubSpokeConfig{Hubs: 10, HubHub: 0.5, HubSpoke: 0.1, SpokeSpoke: 0.001}
		err := takeKeys(kv, map[string]func(string) error{
			"n":    intKey(&cfg.Nodes),
			"hubs": intKey(&cfg.Hubs),
			"hh":   floatKey(&cfg.HubHub),
			"hs":   floatKey(&cfg.HubSpoke),
			"ss":   floatKey(&cfg.SpokeSpoke),
		})
		if err != nil {
			return nil, err
		}
		if err := specCap("n", cfg.Nodes, maxSpecNodes); err != nil {
			return nil, err
		}
		return NewHubSpoke(cfg)
	case "distance":
		cfg := DistanceConfig{CellsX: 8, CellsY: 8, Width: 4000, Height: 4000, Mu0: 0.1, Lambda: 500, Seed: 1}
		err := takeKeys(kv, map[string]func(string) error{
			"n":      intKey(&cfg.Nodes),
			"cells":  cellsKey(&cfg.CellsX, &cfg.CellsY),
			"mu0":    floatKey(&cfg.Mu0),
			"lambda": floatKey(&cfg.Lambda),
			"w":      floatKey(&cfg.Width),
			"h":      floatKey(&cfg.Height),
			"seed":   seedKey(&cfg.Seed),
		})
		if err != nil {
			return nil, err
		}
		if err := specCap("n", cfg.Nodes, maxSpecNodes); err != nil {
			return nil, err
		}
		// Cap each grid dimension before multiplying so the product cannot
		// overflow, then cap the realized community count C = GX·GY.
		if err := specCap("cells", cfg.CellsX, maxSpecComms); err != nil {
			return nil, err
		}
		if err := specCap("cells", cfg.CellsY, maxSpecComms); err != nil {
			return nil, err
		}
		if cfg.CellsX > 0 && cfg.CellsY > 0 {
			if err := specCap("cells", cfg.CellsX*cfg.CellsY, maxSpecComms); err != nil {
				return nil, err
			}
		}
		return NewDistanceKernel(cfg)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q (want community, hubspoke, or distance)", ErrSpec, kind)
	}
}

// DefaultSpecs documents one valid spec per model kind, with defaults
// filled in; the CLIs print it in usage text.
func DefaultSpecs() []string {
	return []string{
		"community:n=<N>,c=8,in=0.5,out=0.01",
		"hubspoke:n=<N>,hubs=10,hh=0.5,hs=0.1,ss=0.001",
		"distance:n=<N>,cells=8x8,mu0=0.1,lambda=500,w=4000,h=4000,seed=1",
	}
}

// parseKV splits "k=v,k=v" into an ordered key/value list, rejecting
// empty clauses, missing '=', and duplicate keys.
func parseKV(rest string) ([][2]string, error) {
	var kv [][2]string
	seen := map[string]bool{}
	for _, clause := range strings.Split(rest, ",") {
		k, v, found := strings.Cut(clause, "=")
		if !found || k == "" {
			return nil, fmt.Errorf("%w: clause %q is not key=value", ErrSpec, clause)
		}
		if seen[k] {
			return nil, fmt.Errorf("%w: duplicate key %q", ErrSpec, k)
		}
		seen[k] = true
		kv = append(kv, [2]string{k, v})
	}
	return kv, nil
}

// takeKeys applies each clause's setter, rejecting unknown keys and
// requiring n.
func takeKeys(kv [][2]string, setters map[string]func(string) error) error {
	sawN := false
	for _, pair := range kv {
		set, ok := setters[pair[0]]
		if !ok {
			return fmt.Errorf("%w: unknown key %q", ErrSpec, pair[0])
		}
		if err := set(pair[1]); err != nil {
			return fmt.Errorf("%w: key %q: %v", ErrSpec, pair[0], err)
		}
		if pair[0] == "n" {
			sawN = true
		}
	}
	if !sawN {
		return fmt.Errorf("%w: missing required key n", ErrSpec)
	}
	return nil
}

// specCap rejects a spec value past its parse-level resource cap.
func specCap(key string, v, max int) error {
	if v > max {
		return fmt.Errorf("%w: %s=%d exceeds the spec cap %d", ErrSpec, key, v, max)
	}
	return nil
}

func intKey(dst *int) func(string) error {
	return func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		*dst = n
		return nil
	}
}

func floatKey(dst *float64) func(string) error {
	return func(v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		*dst = f
		return nil
	}
}

func seedKey(dst *uint64) func(string) error {
	return func(v string) error {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return err
		}
		*dst = u
		return nil
	}
}

func cellsKey(dx, dy *int) func(string) error {
	return func(v string) error {
		xs, ys, found := strings.Cut(v, "x")
		if !found {
			return fmt.Errorf("want GXxGY, got %q", v)
		}
		x, err := strconv.Atoi(xs)
		if err != nil {
			return err
		}
		y, err := strconv.Atoi(ys)
		if err != nil {
			return err
		}
		*dx, *dy = x, y
		return nil
	}
}
