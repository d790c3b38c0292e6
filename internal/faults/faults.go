// Package faults is the fault-injection layer of the simulator. The
// paper's evaluation (Section 6.1) assumes an idealized opportunistic
// network: every meeting lasts long enough for the full protocol
// exchange, nodes never crash, and replication mandates are never lost.
// Real DTNs violate all three. This package models those violations so
// the hardened QCR protocol can be evaluated under them:
//
//  1. Node churn — a node crashes (losing its entire cache, including
//     sticky replicas and pending mandates) and later rejoins empty.
//     Up and down lifetimes are exponential with configurable rates.
//  2. Truncated meetings — a meeting's content-transfer phase fails
//     independently with probability PLoss: the metadata exchange (cache
//     summaries, query counters, mandate routing) completes, but item
//     payloads are lost, modeling contacts too short for full exchange.
//  3. Mandate loss — each mandate handed from one node to another by
//     mandate routing is dropped in flight with probability PDrop.
//
// A Config is a pure description; an Injector is the per-run instance
// holding its own deterministic RNG stream, so that a run with fault
// injection disabled draws exactly the same random numbers from the
// simulator's and policy's streams as a run built before this package
// existed (the layer is a strict no-op when off).
package faults

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Config parameterizes fault injection for one run. The zero value
// disables every fault class.
type Config struct {
	// ChurnRate is each up node's crash intensity (crashes per node per
	// unit time; exponential up-lifetimes). 0 disables churn.
	ChurnRate float64
	// MeanDowntime is the expected downtime after a crash (exponential).
	// When churn is enabled and MeanDowntime is 0, a default of 1/ChurnRate
	// (down as long as up, on average) is used.
	MeanDowntime float64
	// PLoss is the probability that a meeting's content-transfer phase
	// fails (metadata still exchanged, payloads lost).
	PLoss float64
	// PDrop is the probability that a mandate is lost in flight when
	// mandate routing hands it to the other node at a meeting.
	PDrop float64

	// MassCrashTime, when positive, schedules a correlated failure: at
	// that time a fraction MassCrashFrac of all nodes crash together and
	// rejoin after MassDowntime (MeanDowntime's default applies when 0,
	// falling back to a tenth of the mass-crash time). This is the
	// "mass failure" of the degradation experiments: an adaptive scheme
	// re-converges afterwards, a static allocation cannot.
	MassCrashTime float64
	MassCrashFrac float64
	MassDowntime  float64

	// Script is a deterministic event timeline merged into the generated
	// one — typically loaded with ParseTimeline from a scripted outage
	// file. Events beyond the run's duration or node count are ignored.
	Script []Event

	// Seed drives the injector's private RNG stream. Two injectors built
	// from identical configs produce identical fault sequences.
	Seed uint64
}

// Enabled reports whether any fault class is active.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.ChurnRate > 0 || c.PLoss > 0 || c.PDrop > 0 ||
		(c.MassCrashTime > 0 && c.MassCrashFrac > 0) || len(c.Script) > 0
}

// Validate checks the configuration's ranges.
func (c *Config) Validate() error {
	switch {
	case c == nil:
		return nil
	case c.ChurnRate < 0 || math.IsNaN(c.ChurnRate) || math.IsInf(c.ChurnRate, 0):
		return fmt.Errorf("faults: churn rate %g", c.ChurnRate)
	case c.MeanDowntime < 0 || math.IsNaN(c.MeanDowntime):
		return fmt.Errorf("faults: mean downtime %g", c.MeanDowntime)
	case c.PLoss < 0 || c.PLoss > 1 || math.IsNaN(c.PLoss):
		return fmt.Errorf("faults: p_loss %g outside [0,1]", c.PLoss)
	case c.PDrop < 0 || c.PDrop > 1 || math.IsNaN(c.PDrop):
		return fmt.Errorf("faults: p_drop %g outside [0,1]", c.PDrop)
	case c.MassCrashFrac < 0 || c.MassCrashFrac > 1 || math.IsNaN(c.MassCrashFrac):
		return fmt.Errorf("faults: mass-crash fraction %g outside [0,1]", c.MassCrashFrac)
	case c.MassCrashTime < 0 || math.IsNaN(c.MassCrashTime):
		return fmt.Errorf("faults: mass-crash time %g", c.MassCrashTime)
	case c.MassDowntime < 0 || math.IsNaN(c.MassDowntime):
		return fmt.Errorf("faults: mass downtime %g", c.MassDowntime)
	}
	for k, ev := range c.Script {
		if ev.T < 0 || math.IsNaN(ev.T) || math.IsInf(ev.T, 0) || ev.Node < 0 {
			return fmt.Errorf("faults: script event %d: t=%g node=%d", k, ev.T, ev.Node)
		}
	}
	return nil
}

// Event is one node state transition in the fault timeline.
type Event struct {
	T    float64
	Node int
	// Down is true for a crash, false for a rejoin. Events are idempotent
	// for the consumer: a crash of an already-down node (its individual
	// churn clock fired while it was mass-crashed, or vice versa) and a
	// rejoin of an up node are ignored.
	Down bool
}

// Tally counts the faults injected into one run and the hardening
// machinery's reactions to them. It lands in the simulator's Result.
type Tally struct {
	// Injected faults.
	Crashes           int // node crash events applied
	Rejoins           int // node rejoin events applied
	TruncatedMeetings int // meetings whose content-transfer phase failed
	SkippedContacts   int // trace contacts involving a down node
	DroppedArrivals   int // requests arriving at a down node (lost)
	ReplicasLost      int // cache entries wiped by crashes
	StickyLost        int // sticky (pinned) replicas among them
	RequestsLost      int // open requests wiped by crashes
	MandatesCrashed   int // pending mandates wiped by crashes

	// Hardening reactions (filled from the policy where applicable).
	MandatesDropped   int // mandates lost in flight at handoff (PDrop)
	MandatesExpired   int // mandates discarded by TTL expiry
	MandatesAbandoned int // mandates discarded after exhausting retries
	StickyReseeded    int // sticky replicas re-pinned after a holder crash
}

// Injector is the per-run fault source. All randomness comes from its
// private stream, seeded by the config, so fault injection never
// perturbs the simulator's or the policy's RNG streams.
type Injector struct {
	cfg Config
	rng *rand.Rand
}

// New builds an injector for one run. Returns nil when the config
// disables every fault class, which callers use as the "off" signal.
func New(cfg *Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	c := *cfg
	if c.ChurnRate > 0 && c.MeanDowntime == 0 {
		c.MeanDowntime = 1 / c.ChurnRate
	}
	return &Injector{
		cfg: c,
		rng: rand.New(rand.NewPCG(c.Seed^0xfa017ed, c.Seed*2654435761+0x9e3779b9)),
	}, nil
}

// Config returns the effective (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// Timeline precomputes the churn events for a population over one run:
// per-node alternating exponential up/down lifetimes, plus the optional
// correlated mass crash. The result is sorted by time (ties broken by
// node id, crashes before rejoins) and is deterministic in the seed.
func (in *Injector) Timeline(nodes int, duration float64) []Event {
	var evs []Event
	if in.cfg.ChurnRate > 0 {
		for n := 0; n < nodes; n++ {
			t := in.rng.ExpFloat64() / in.cfg.ChurnRate
			for t < duration {
				evs = append(evs, Event{T: t, Node: n, Down: true})
				t += in.rng.ExpFloat64() * in.cfg.MeanDowntime
				if t >= duration {
					break
				}
				evs = append(evs, Event{T: t, Node: n, Down: false})
				t += in.rng.ExpFloat64() / in.cfg.ChurnRate
			}
		}
	}
	if in.cfg.MassCrashTime > 0 && in.cfg.MassCrashFrac > 0 && in.cfg.MassCrashTime < duration {
		down := in.cfg.MassDowntime
		if down == 0 {
			down = in.cfg.MeanDowntime
		}
		if down == 0 {
			down = in.cfg.MassCrashTime / 10
		}
		k := int(math.Round(in.cfg.MassCrashFrac * float64(nodes)))
		if k > nodes {
			k = nodes
		}
		// Crash a uniformly random subset of k nodes (partial Fisher-Yates
		// over the node ids).
		ids := make([]int, nodes)
		for i := range ids {
			ids[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + in.rng.IntN(nodes-i)
			ids[i], ids[j] = ids[j], ids[i]
			evs = append(evs, Event{T: in.cfg.MassCrashTime, Node: ids[i], Down: true})
			if up := in.cfg.MassCrashTime + down; up < duration {
				evs = append(evs, Event{T: up, Node: ids[i], Down: false})
			}
		}
	}
	for _, ev := range in.cfg.Script {
		if ev.Node < nodes && ev.T < duration {
			evs = append(evs, ev)
		}
	}
	sortEvents(evs)
	return evs
}

// TruncateMeeting draws whether the next meeting's content-transfer
// phase fails. Called once per meeting between two up nodes.
func (in *Injector) TruncateMeeting() bool {
	if in.cfg.PLoss <= 0 {
		return false
	}
	return in.rng.Float64() < in.cfg.PLoss
}

// DropMandate draws whether one mandate handoff loses the mandate in
// flight; the simulator exposes it to policies through core.Cache.
func (in *Injector) DropMandate() bool {
	if in.cfg.PDrop <= 0 {
		return false
	}
	return in.rng.Float64() < in.cfg.PDrop
}
