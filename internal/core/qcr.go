// Package core implements the paper's primary contribution: Query
// Counting Replication (QCR) with Mandate Routing (Section 5).
//
// QCR is a reactive, fully local replication protocol. Each outstanding
// request keeps a query counter incremented at every meeting; when the
// request is finally fulfilled the counter value y — whose expectation is
// |S|/x_i, a free local estimate of the item's replica scarcity — is fed
// to a reaction function ψ and ⌈ψ(y)⌉-ish replicas of the item are
// scheduled for creation. Because replicas cannot be minted on the spot
// in an opportunistic network, the schedule takes the form of replication
// mandates that execute (copy the item onto a node lacking it, evicting a
// random cache slot) when meetings allow, and that are routed toward
// nodes holding the item so they do not starve (Section 5.3). With ψ
// tuned per Property 2 to the population's delay-utility, the protocol's
// steady state is the optimal cache allocation.
//
// Beyond the paper's idealized evaluation (Section 6.1), the policy is
// hardened against injected faults (node churn, truncated meetings,
// mandate loss — see internal/faults): mandates carry a creation time and
// expire after MandateTTL so that mandates for an item whose holders all
// crashed do not circulate forever, and a per-mandate retry budget
// (MaxAttempts) bounds how often a mandate whose content transfer keeps
// failing is retried at later meetings. Both mechanisms are off by
// default and leave the fault-free protocol byte-identical.
package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"impatience/internal/arena"
	"impatience/internal/utility"
)

// Cache is the view of the global distributed cache a replication policy
// acts through. It is implemented by the simulator's state.
type Cache interface {
	// Nodes and Items return the population and catalog sizes.
	Nodes() int
	Items() int
	// Has reports whether node's cache holds item.
	Has(node, item int) bool
	// Write inserts item into node's cache, evicting a uniformly random
	// non-sticky slot. It reports false when the write is impossible
	// (node already holds the item, all its slots are pinned, or the
	// current meeting's content-transfer phase failed).
	Write(node, item int) bool
	// StickyNode returns the node holding item's pinned replica, or -1.
	StickyNode(item int) int
	// Count returns the number of replicas of item across all caches.
	// A node learns it only approximately in a real DTN; the hardened
	// reaction uses it as the supply side of its replica clamp, standing
	// in for the gossip-estimated count a deployment would carry.
	Count(item int) int
}

// MaxQueryCount saturates the query counters: the simulator's per-meeting
// increment and the adversary layer's counter inflation both stop at this
// value, so a large per-node multiplier sustained over a long horizon can
// never overflow the int arithmetic the reaction functions consume. The
// honest expectation is E[y] = |S|/x_i ≪ 2³¹, so saturation is
// unreachable without an attack and changes no honest digest.
const MaxQueryCount = math.MaxInt32

// Policy decides replication. The simulator invokes OnFulfill once per
// fulfilled request and OnMeeting once per meeting (after fulfillments).
type Policy interface {
	Name() string
	// Init is called once before the simulation starts.
	Init(c Cache)
	// OnFulfill reports that node's request for item, whose query counter
	// reached queries, was fulfilled by peer at time now after waiting
	// age time units (0 for immediate local fulfillment).
	OnFulfill(c Cache, node, peer, item, queries int, age, now float64)
	// OnMeeting is invoked for every meeting of a and b at time now.
	OnMeeting(c Cache, a, b int, now float64)
}

// Disruptor models transport-level faults the simulator injects into the
// protocol's control plane. It is implemented by faults.Injector.
type Disruptor interface {
	// DropMandate draws whether one mandate handed to the other node at a
	// meeting is lost in flight.
	DropMandate() bool
}

// FaultAware policies accept fault wiring from the simulator before the
// run starts.
type FaultAware interface {
	SetDisruptor(d Disruptor)
}

// CrashAware policies are notified when a node crashes and must discard
// all protocol state held at that node. The return value is the number
// of pending mandates lost, for the run's fault tally.
type CrashAware interface {
	OnCrash(node int) int
}

// Misbehavior exposes the adversary layer's node roles to a policy. It is
// implemented by adversary.Injector.
type Misbehavior interface {
	// FreeRider reports whether node consumes content without serving:
	// it refuses cache writes and will not carry replication mandates.
	FreeRider(node int) bool
}

// AdversaryAware policies accept misbehavior wiring from the simulator
// before the run starts, so mandate routing can keep mandates off nodes
// that would refuse to carry them.
type AdversaryAware interface {
	SetMisbehavior(m Misbehavior)
}

// Static is the no-op policy used for the fixed-allocation competitors
// (OPT, UNI, SQRT, PROP, DOM): the cache is set up once by an oracle with
// a perfect control channel and never changes.
type Static struct{ Label string }

// Name implements Policy.
func (s Static) Name() string {
	if s.Label == "" {
		return "static"
	}
	return s.Label
}

// Init implements Policy.
func (Static) Init(Cache) {}

// OnFulfill implements Policy.
func (Static) OnFulfill(Cache, int, int, int, int, float64, float64) {}

// OnMeeting implements Policy.
func (Static) OnMeeting(Cache, int, int, float64) {}

// PassiveHooks implements PassivePolicy: a static allocation never reacts.
func (Static) PassiveHooks() bool { return true }

// PassivePolicy marks policies whose OnFulfill and OnMeeting hooks are
// guaranteed no-ops for the whole run: the simulator's devirtualized
// meeting loop elides the two virtual calls per contact (and one per
// fulfillment) entirely, which is measurable at millions of contacts per
// run. Implementations must return a constant; a policy whose hooks are
// only *sometimes* inert must not implement this interface. Eliding calls
// to true no-ops cannot change any simulation result — the digest tests
// pin that.
type PassivePolicy interface {
	PassiveHooks() bool
}

// IsPassive reports whether p declares both its per-meeting hooks to be
// no-ops (see PassivePolicy).
func IsPassive(p Policy) bool {
	pp, ok := p.(PassivePolicy)
	return ok && pp.PassiveHooks()
}

// ReactionFunc maps a final query-counter value to the (real-valued)
// number of replicas to create for the fulfilled item.
type ReactionFunc func(queries int) float64

// TunedReaction builds the Property-2 reaction function for delay-utility
// f under contact rate mu and server count servers: ψ(y) ∝ (S/y)·ϕ(S/y).
// scale sets the proportionality constant (1 is a reasonable default; it
// affects convergence speed and replication traffic, not the fixed
// point). The counter value 0 (immediate fulfillment) maps to 0.
func TunedReaction(f utility.Function, mu float64, servers int, scale float64) ReactionFunc {
	if scale <= 0 {
		scale = 1
	}
	S := float64(servers)
	return func(queries int) float64 {
		if queries <= 0 {
			return 0
		}
		return scale * utility.Psi(f, mu, S, float64(queries))
	}
}

// TunedReactions builds the per-item Property-2 reaction for a catalog
// whose items follow different delay-utilities; nil entries fall back to
// fallback (which may itself be nil when every entry is set).
func TunedReactions(fs []utility.Function, fallback utility.Function, mu float64, servers int, scale float64) func(item, queries int) float64 {
	if scale <= 0 {
		scale = 1
	}
	S := float64(servers)
	return func(item, queries int) float64 {
		if queries <= 0 {
			return 0
		}
		f := fallback
		if item < len(fs) && fs[item] != nil {
			f = fs[item]
		}
		if f == nil {
			return 0
		}
		return scale * utility.Psi(f, mu, S, float64(queries))
	}
}

// PathReplication is the classical ψ(y) = scale·y reaction of Cohen &
// Shenker, whose equilibrium is the square-root allocation; provided as a
// baseline reaction.
func PathReplication(scale float64) ReactionFunc {
	if scale <= 0 {
		scale = 1
	}
	return func(queries int) float64 {
		if queries <= 0 {
			return 0
		}
		return scale * float64(queries)
	}
}

// ConstantReaction is ψ(y) = c, the passive replication that converges to
// the proportional allocation (optimal only for neg-log impatience).
func ConstantReaction(c float64) ReactionFunc {
	return func(queries int) float64 {
		if queries <= 0 {
			return 0
		}
		return c
	}
}

// Hardening bundles the defenses of the rate-limited, clamped ψ reaction
// against adversarial query counters (dishonest nodes inflating y to game
// the reaction). All three knobs bound how far a forged counter can move
// the replica population; none changes the honest fixed point:
//
//   - CounterCap saturates the per-fulfillment counter credit. The honest
//     expectation is E[y] = |S|/x_i ≤ |S| (every item keeps x ≥ 1
//     replicas), so a cap of a few multiples of |S| never binds on honest
//     reports while flattening a ×M forged counter.
//   - SmoothAlpha rate-limits upward excursions of the reaction input:
//     each item keeps an EWMA ŷ = α·y + (1−α)·ŷ_prev of its capped
//     reports and the reaction is evaluated at min(y, ŷ), so a single
//     forged counter earns at most an α-fraction of its lie above the
//     recent history while reports at or below the running mean pass
//     through untouched. (Smoothing the input symmetrically would be
//     worse than nothing: the EWMA's memory of a forged report would
//     boost every later honest report of the same item, spreading the
//     lie instead of containing it.) For linear ψ the min against the
//     running mean is a near-uniform shrink of the effective reaction
//     scale across items, which slows convergence slightly but does not
//     move the fixed-point allocation.
//   - ReplicaClamp bounds an item's supply (current replicas plus pending
//     mandates) that minting may grow toward, derived from the
//     water-filling cap of the relaxed optimum: no honest trajectory
//     needs more than ~1.5× the largest x̃_i, so minting beyond it only
//     ever serves an attacker.
//
// A nil *Hardening on the QCR policy is a strict no-op: the vanilla
// reaction path runs byte-identically to a build without this type.
type Hardening struct {
	CounterCap   int     // saturate the reported counter (0 = off)
	SmoothAlpha  float64 // EWMA weight of the newest report, in (0,1]; 0 or 1 = off
	ReplicaClamp int     // per-item supply bound for minting (0 = off)
}

// Validate checks the hardening knobs' ranges.
func (h *Hardening) Validate() error {
	switch {
	case h == nil:
		return nil
	case h.CounterCap < 0:
		return fmt.Errorf("core: counter cap %d", h.CounterCap)
	case h.SmoothAlpha < 0 || h.SmoothAlpha > 1 || math.IsNaN(h.SmoothAlpha):
		return fmt.Errorf("core: smoothing alpha %g outside [0,1]", h.SmoothAlpha)
	case h.ReplicaClamp < 0:
		return fmt.Errorf("core: replica clamp %d", h.ReplicaClamp)
	}
	return nil
}

// mandate is one pending replication order. born is when the fulfillment
// that created it happened (mandates inherited at a handoff keep their
// original creation time); tries counts content-transfer attempts that
// failed, for the bounded-retry hardening.
type mandate struct {
	born  float64
	tries int
}

// QCR is the Query Counting Replication policy.
type QCR struct {
	// Reaction maps query-counter values to replica budgets. Required
	// unless PerItemReaction is set.
	Reaction ReactionFunc
	// PerItemReaction, when non-nil, overrides Reaction with a per-item
	// reaction function — the tuning for catalogs whose items follow
	// different delay-utilities (Section 3.2). See TunedReactions.
	PerItemReaction func(item, queries int) float64
	// MandateRouting moves mandates toward nodes holding the item
	// (Section 5.3). Disabling it reproduces the divergence pathology of
	// Figure 3 ("QCRWOM").
	MandateRouting bool
	// Rewriting consumes a mandate when both meeting nodes already hold
	// the item (Section 5.1, "replication with rewriting"). The paper's
	// evaluation keeps this off.
	Rewriting bool
	// StrictSource requires the mandate-holding node itself to possess
	// the item for a mandate to execute (Section 5.1's "transmit them
	// proactively": the replicator sources the copy). This is what makes
	// mandate routing essential — without routing, mandates stranded on
	// nodes that lost (or never had) the item stall indefinitely and the
	// allocation diverges (the Figure 3 pathology). With StrictSource
	// off, a mandate may also execute by pulling the copy from the peer
	// onto its own node, a more forgiving variant.
	StrictSource bool
	// MaxMandates caps the mandates created per fulfillment (0 = no cap).
	// Steep reaction functions (power utilities with α ≪ 1 have
	// ψ(y) ∝ y^{1-α}) occasionally meet a very large query counter and
	// emit replica bursts comparable to the whole global cache; the
	// resulting allocation variance hurts the concave welfare far more
	// than the clipped tail helps the equilibrium. A cap of about half
	// the server count preserves the fixed point in the common-counter
	// regime while taming the tail.
	MaxMandates int
	// MandateTTL discards mandates older than this at the next meeting
	// they surface at (0 = never expire). Under node churn every replica
	// of an item — including its sticky copy — can vanish in a crash;
	// with StrictSource such orphaned mandates could otherwise circulate
	// forever, bloating routing traffic and the mandate population
	// (Figure 3's divergence, resurrected by faults). Expiry is lazy: a
	// meeting is the only synchronization point an opportunistic network
	// has, so mandates parked on a node that never meets again linger in
	// TotalMandates until the run ends.
	MandateTTL float64
	// MaxAttempts bounds how many failed content-transfer attempts one
	// mandate survives (0 = unlimited). Truncated meetings (faults.PLoss)
	// complete the metadata exchange but lose the payload; the driving
	// mandate is then retained and retried at later meetings, up to this
	// budget, after which it is abandoned.
	MaxAttempts int
	// Seed makes the policy's randomized rounding and odd-mandate splits
	// deterministic.
	Seed uint64
	// Hardening enables the rate-limited, clamped reaction against
	// adversarial query counters. nil keeps the vanilla reaction path
	// byte-identical to a build without the hardening layer.
	Hardening *Hardening

	rng         *rand.Rand
	disruptor   Disruptor
	misbehavior Misbehavior
	ewma        []float64            // per item: smoothed reaction input (0 = no report yet)
	capped      int                  // reports saturated by Hardening.CounterCap
	clamped     int                  // mandates withheld by Hardening.ReplicaClamp
	piles       arena.Lists[mandate] // per node: items with pending mandates, oldest first
	moved       int                  // mandates that changed nodes (routing traffic)
	created     int                  // mandates minted by OnFulfill
	executed    int                  // mandates consumed by replication (incl. rewriting)
	expired     int                  // mandates discarded by TTL expiry
	abandoned   int                  // mandates discarded after exhausting MaxAttempts
	dropped     int                  // mandates lost in flight at handoff
}

// Name implements Policy.
func (q *QCR) Name() string {
	if !q.MandateRouting {
		return "qcr-no-routing"
	}
	if q.Hardening != nil {
		return "qcr-hardened"
	}
	return "qcr"
}

// Init implements Policy.
func (q *QCR) Init(c Cache) {
	q.rng = rand.New(rand.NewPCG(q.Seed, q.Seed^0x51ce5ca1ab1e))
	q.piles = arena.New[mandate](c.Nodes())
	q.ewma = nil
	if q.Hardening != nil {
		q.ewma = make([]float64, c.Items())
	}
}

// SetDisruptor implements FaultAware: the simulator wires its fault
// injector in before the run when fault injection is enabled.
func (q *QCR) SetDisruptor(d Disruptor) { q.disruptor = d }

// SetMisbehavior implements AdversaryAware: the simulator wires the
// adversary layer's node roles in before the run, so mandate routing
// steers mandates away from free-riders that would refuse to carry them.
func (q *QCR) SetMisbehavior(m Misbehavior) { q.misbehavior = m }

// HardeningCounters reports the hardened reaction's interventions:
// counter reports saturated by CounterCap and mandates withheld by the
// ReplicaClamp supply bound. Both are zero when Hardening is nil.
func (q *QCR) HardeningCounters() (capped, clamped int) {
	return q.capped, q.clamped
}

// OnCrash implements CrashAware: a crashed node loses its pending
// mandates along with its cache. Returns the number lost.
func (q *QCR) OnCrash(node int) int { return q.piles.Clear(node) }

// TotalMandates returns the number of pending mandates across all nodes,
// the divergence indicator of Figure 3.
func (q *QCR) TotalMandates() int { return q.piles.Total() }

// MandatesMoved returns the cumulative number of mandates transferred
// between nodes by mandate routing — the protocol's control overhead
// beyond content transfers (mandates are tiny, but we account for them).
func (q *QCR) MandatesMoved() int { return q.moved }

// MandatesFor returns pending mandates for one item across all nodes.
func (q *QCR) MandatesFor(item int) int { return q.piles.TotalItem(item) }

// MandatesCreated returns the cumulative number of mandates minted by
// OnFulfill, the input side of the mandate conservation law:
//
//	created = pending + executed + expired + abandoned + dropped + crashed
//
// (crashed is tallied by the simulator via OnCrash).
func (q *QCR) MandatesCreated() int { return q.created }

// MandatesExecuted returns mandates consumed by successful replication
// (including vacuous rewriting consumptions).
func (q *QCR) MandatesExecuted() int { return q.executed }

// FaultCounters reports the hardening tallies: mandates lost in flight
// at handoff, discarded by TTL expiry, and abandoned after exhausting
// their retry budget.
func (q *QCR) FaultCounters() (dropped, expired, abandoned int) {
	return q.dropped, q.expired, q.abandoned
}

// count returns the pending mandates for item at node (test hook).
func (q *QCR) count(node, item int) int { return len(q.piles.Find(node, item)) }

// addMandates injects n mandates born at the given time (test hook).
func (q *QCR) addMandates(node, item, n int, born float64) {
	if n <= 0 {
		return
	}
	q.mint(node, item, n, born)
}

// mint appends n ≥ 1 mandates born at now to node's pile for item.
func (q *QCR) mint(node, item, n int, now float64) {
	c := q.piles.At(node, item)
	pile := c.Vals()
	for j := 0; j < n; j++ {
		pile = append(pile, mandate{born: now})
	}
	c.Set(pile)
	q.created += n
}

// OnFulfill implements Policy: convert the query count into mandates via
// the reaction function with randomized rounding (preserving E[replicas]
// = ψ(y), which the steady-state analysis of Section 5.2 relies on).
// With Hardening set, the counter credit is saturated and EWMA-smoothed
// before the reaction, and minting is clamped to the item's remaining
// supply headroom — see Hardening for why none of this moves the honest
// fixed point.
func (q *QCR) OnFulfill(c Cache, node, peer, item, queries int, age, now float64) {
	if h := q.Hardening; h != nil && queries > 0 {
		queries = q.hardenedInput(item, queries)
	}
	var r float64
	if q.PerItemReaction != nil {
		r = q.PerItemReaction(item, queries)
	} else {
		r = q.Reaction(queries)
	}
	if r <= 0 || math.IsNaN(r) {
		return
	}
	if q.MaxMandates > 0 && r > float64(q.MaxMandates) {
		r = float64(q.MaxMandates)
	}
	k := int(math.Floor(r))
	if q.rng.Float64() < r-math.Floor(r) {
		k++
	}
	if h := q.Hardening; h != nil && h.ReplicaClamp > 0 && k > 0 {
		room := h.ReplicaClamp - c.Count(item) - q.MandatesFor(item)
		if room < 0 {
			room = 0
		}
		if k > room {
			q.clamped += k - room
			k = room
		}
	}
	if k > 0 {
		q.mint(node, item, k, now)
	}
}

// hardenedInput applies the counter cap and the EWMA rate limiter to a
// reported query counter, returning the integer reaction input
// min(y, ŷ). The limited value rounds to the nearest integer — counters
// are integral to begin with and the reaction functions are continuous,
// so the residual quantization is below the randomized-rounding noise
// floor.
func (q *QCR) hardenedInput(item, queries int) int {
	h := q.Hardening
	y := queries
	if h.CounterCap > 0 && y > h.CounterCap {
		y = h.CounterCap
		q.capped++
	}
	if h.SmoothAlpha > 0 && h.SmoothAlpha < 1 {
		yf := float64(y)
		smoothed := yf
		if prev := q.ewma[item]; prev > 0 {
			smoothed = h.SmoothAlpha*yf + (1-h.SmoothAlpha)*prev
		}
		q.ewma[item] = smoothed
		if smoothed < yf {
			y = int(math.Round(smoothed))
		}
	}
	if y < 1 {
		y = 1
	}
	return y
}

// consume removes the oldest mandate of a pile (FIFO: the mandates that
// have waited longest execute first) and counts the execution.
func (q *QCR) consume(pile []mandate) []mandate {
	q.executed++
	return pile[1:]
}

// retryOrAbandon charges one failed content-transfer attempt to the
// mandate that would have driven the replication. With a retry budget
// set, a mandate that exhausts it is abandoned.
func (q *QCR) retryOrAbandon(pile []mandate) []mandate {
	pile[0].tries++
	if q.MaxAttempts > 0 && pile[0].tries >= q.MaxAttempts {
		q.abandoned++
		return pile[1:]
	}
	return pile
}

// expireOld discards mandates older than the TTL. Only called when
// MandateTTL > 0.
func (q *QCR) expireOld(pile []mandate, now float64) []mandate {
	keep := pile[:0]
	for _, m := range pile {
		if now-m.born > q.MandateTTL {
			q.expired++
		} else {
			keep = append(keep, m)
		}
	}
	return keep
}

// OnMeeting implements Policy: expire stale mandates, execute at most one
// mandate per item (creating a replica on whichever of the two nodes
// lacks the item), then route the remainder.
func (q *QCR) OnMeeting(c Cache, a, b int, now float64) {
	l := &q.piles
	if l.Empty(a) && l.Empty(b) {
		return
	}
	// Walk the two nodes' pile lists together in ascending item order:
	// each item with pending mandates on either side is visited once. The
	// side without a pile gets an empty one at its cursor (reusing a
	// drained pile's storage, so routing into it does not allocate);
	// piles left empty are removed after the walk.
	ca, cb := l.Walk(a), l.Walk(b)
	for {
		item, ok := ca.Item()
		if ib, okb := cb.Item(); okb && (!ok || ib < item) {
			item, ok = ib, true
		}
		if !ok {
			break
		}
		ca.Seek(item)
		cb.Seek(item)
		q.meetItem(c, a, b, item, &ca, &cb, now)
		ca.Next()
		cb.Next()
	}
	l.Compact(a)
	l.Compact(b)
}

// meetItem runs one item's share of a meeting on the piles under ca (at
// a) and cb (at b): expire stale mandates, execute at most one, then
// route the remainder.
func (q *QCR) meetItem(c Cache, a, b, item int, ca, cb *arena.Cursor[mandate], now float64) {
	pa, pb := ca.Vals(), cb.Vals()
	origA, origB := len(pa), len(pb) // pre-meeting piles, for moved accounting
	if q.MandateTTL > 0 {
		pa = q.expireOld(pa, now)
		pb = q.expireOld(pb, now)
	}
	if len(pa)+len(pb) == 0 {
		ca.Set(pa)
		cb.Set(pb)
		return
	}
	hasA, hasB := c.Has(a, item), c.Has(b, item)
	switch {
	case hasA && hasB:
		if q.Rewriting {
			// A (vacuous) replication consumes one mandate.
			if len(pa) >= len(pb) && len(pa) > 0 {
				pa = q.consume(pa)
			} else if len(pb) > 0 {
				pb = q.consume(pb)
			}
		}
	case hasA && !hasB:
		// The copy flows a → b. Under StrictSource only a's own
		// mandates can drive it; otherwise either side's can (the
		// holder's pile is consumed first when available).
		if q.StrictSource {
			if len(pa) > 0 {
				if c.Write(b, item) {
					pa = q.consume(pa)
					hasB = true
				} else {
					pa = q.retryOrAbandon(pa)
				}
			}
		} else if c.Write(b, item) {
			if len(pa) > 0 {
				pa = q.consume(pa)
			} else {
				pb = q.consume(pb)
			}
			hasB = true
		} else if len(pa) > 0 {
			pa = q.retryOrAbandon(pa)
		} else {
			pb = q.retryOrAbandon(pb)
		}
	case !hasA && hasB:
		if q.StrictSource {
			if len(pb) > 0 {
				if c.Write(a, item) {
					pb = q.consume(pb)
					hasA = true
				} else {
					pb = q.retryOrAbandon(pb)
				}
			}
		} else if c.Write(a, item) {
			if len(pb) > 0 {
				pb = q.consume(pb)
			} else {
				pa = q.consume(pa)
			}
			hasA = true
		} else if len(pb) > 0 {
			pb = q.retryOrAbandon(pb)
		} else {
			pa = q.retryOrAbandon(pa)
		}
	}
	if q.MandateRouting {
		wantA, _ := q.route(c, a, b, item, len(pa)+len(pb), hasA, hasB)
		// A free-rider refuses to carry mandates: nothing may cross to
		// it, and a non-free-riding peer takes everything it holds.
		if m := q.misbehavior; m != nil {
			frA, frB := m.FreeRider(a), m.FreeRider(b)
			switch {
			case frA && frB:
				wantA = len(pa)
			case frA:
				wantA = 0
			case frB:
				wantA = len(pa) + len(pb)
			}
		}
		pa, pb = q.redistribute(pa, pb, wantA)
	}
	// Routing traffic: any increase relative to the pre-meeting pile
	// crossed over (net of executions, matching the original metric).
	if gain := len(pa) - origA; gain > 0 {
		q.moved += gain
	}
	if gain := len(pb) - origB; gain > 0 {
		q.moved += gain
	}
	ca.Set(pa)
	cb.Set(pb)
}

// redistribute realizes the routing split: mandates cross from the side
// holding more than its share to the other, oldest first. Each crossing
// mandate is independently lost in flight when a disruptor injects
// mandate-drop faults.
func (q *QCR) redistribute(pa, pb []mandate, wantA int) (na, nb []mandate) {
	switch {
	case wantA > len(pa): // b → a
		k := wantA - len(pa)
		for j := 0; j < k; j++ {
			m := pb[0]
			pb = pb[1:]
			if q.disruptor != nil && q.disruptor.DropMandate() {
				q.dropped++
				continue
			}
			pa = append(pa, m)
		}
	case wantA < len(pa): // a → b
		k := len(pa) - wantA
		for j := 0; j < k; j++ {
			m := pa[0]
			pa = pa[1:]
			if q.disruptor != nil && q.disruptor.DropMandate() {
				q.dropped++
				continue
			}
			pb = append(pb, m)
		}
	}
	return pa, pb
}

// route computes how an item's surviving mandates split between the two
// meeting nodes (Section 6.1): all to a sole holder, ceil(2/3) to the
// item's sticky node when both hold it, an even split otherwise.
func (q *QCR) route(c Cache, a, b, item, total int, hasA, hasB bool) (na, nb int) {
	if total == 0 {
		return 0, 0
	}
	sticky := c.StickyNode(item)
	switch {
	case hasA && !hasB:
		return total, 0
	case hasB && !hasA:
		return 0, total
	case sticky == a && hasA && hasB:
		na = (2*total + 2) / 3 // ceil(2/3·total)
		return na, total - na
	case sticky == b && hasA && hasB:
		nb = (2*total + 2) / 3
		return total - nb, nb
	default:
		// Both or neither hold the item: split evenly, odd one at random.
		na = total / 2
		nb = total - na
		if na != nb && q.rng.IntN(2) == 0 {
			na, nb = nb, na
		}
		return na, nb
	}
}
