// Package sim is the discrete-event simulator of the paper's evaluation
// (Section 6): given a contact trace (measured or synthetic), a demand
// process, a delay-utility function and a replication policy, it plays
// out request arrivals and node meetings, fulfills requests when a
// requester meets a holder, records the realized delay-utility gains, and
// lets the policy replicate cache content.
//
// The model follows Section 6.1: the population is pure P2P (every node
// is both client and server), meetings are instantaneous but long enough
// for the full protocol exchange, cache replacement is uniformly random
// over non-sticky slots, each item has one sticky replica that cannot be
// evicted, and rewriting is disabled unless the policy enables it.
//
// Those Section-6.1 idealizations can be selectively removed through the
// fault-injection layer (Config.Faults, package internal/faults): nodes
// crash and rejoin empty, meetings lose their content-transfer phase,
// and routed mandates drop in flight. With fault injection disabled the
// simulator is byte-identical to the idealized model for the same seed —
// the fault layer draws from its own RNG stream and every fault code
// path is gated on it being enabled.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"impatience/internal/adversary"
	"impatience/internal/alloc"
	"impatience/internal/arena"
	"impatience/internal/core"
	"impatience/internal/demand"
	"impatience/internal/faults"
	"impatience/internal/trace"
	"impatience/internal/utility"
)

// Config parameterizes one simulation run.
type Config struct {
	Rho     int              // cache slots per node
	Utility utility.Function // the population's impatience
	// Utilities optionally gives each item its own delay-utility
	// (Section 3.2); nil entries fall back to Utility.
	Utilities []utility.Function
	Pop       demand.Popularity
	Profile   demand.Profile // optional; uniform if zero value
	// Contacts drives meetings and the run duration in Run: a
	// materialized trace as tr.Source(), or a lazily drawn process whose
	// generation fuses with simulation, so a huge-duration run holds the
	// source's O(N²) rate state rather than the O(N²·µ·T) contact list.
	// Sources must honor the trace.Source contract (time-ordered,
	// in-range contacts); every contact is checked cheaply as it is
	// consumed, and sources implementing trace.ErrSource have their
	// terminal error propagated. Batch configs leave it nil: the batch's
	// shared source drives every runner.
	Contacts trace.Source
	Policy   core.Policy // replication policy (core.Static for fixed allocations)

	// Initial is the starting allocation (counts per item). nil means the
	// UNI allocation. For static policies this is the allocation under
	// test and stays fixed for the whole run.
	Initial alloc.Counts
	// InitialPlacement, if non-nil, pins the exact item-to-node placement
	// (server index = node id) instead of deriving one from Initial. It
	// is how the heterogeneous OPT competitor keeps the node assignment
	// its submodular greedy chose. Requires NoSticky.
	InitialPlacement *alloc.Placement
	// Sticky pins one replica of every item at node (item mod N), making
	// the item unlosable (Section 6.1). It is forced off for static
	// policies (their caches never change) and on for QCR-style policies
	// unless explicitly disabled with NoSticky.
	NoSticky bool

	Seed uint64

	// WarmupFrac is the fraction of the run excluded from the average
	// utility (the allocation needs time to converge). 0 means the
	// default of 0.2; pass a negative value for no warmup at all.
	WarmupFrac float64
	// BinWidth enables time series: realized gain, fulfillments and
	// (optionally) replica-count snapshots per bin of this width. 0
	// disables series collection.
	BinWidth float64
	// RecordCounts additionally snapshots the full per-item replica
	// counts at every bin boundary (needed for Figure 3c/3d).
	RecordCounts bool
	// RecordDelays collects per-item conformance instrumentation after
	// warmup: the fulfillment-delay samples (ItemDelays, one slice per
	// item, 0 for immediate local fulfillments), the per-item realized
	// gain (ItemGains) and fulfillment counts (ItemFulfillments). The
	// theory-vs-simulation oracle (internal/oracle) KS-tests the delay
	// samples against the exponential meeting model and checks the
	// per-item gain rates against the closed-form welfare terms. The new
	// Result fields are deliberately excluded from Result.Digest, so
	// enabling them cannot move any golden.
	RecordDelays bool

	// DemandSwitch, if non-nil, replaces the popularity at time
	// DemandSwitchTime (the dynamic-demand extension).
	DemandSwitch     *demand.Popularity
	DemandSwitchTime float64

	// Faults enables fault injection: node churn (crash/rejoin with the
	// whole cache and pending mandates lost), truncated meetings (the
	// content-transfer phase fails with probability PLoss), and in-flight
	// mandate drops at routing handoffs (PDrop). nil — or a config whose
	// Enabled() is false — is a strict no-op: the run is byte-identical
	// to one without the fault layer. When the run uses sticky replicas,
	// the hardening re-pins an item's sticky copy at the next node that
	// serves (or locally fulfills) it after the original holder crashed.
	Faults *faults.Config

	// Adversary enables the misbehavior-and-drift layer: dishonest nodes
	// inflating reported query counters, free-riders that consume content
	// but never serve or carry mandates, and scheduled popularity churn
	// (flash crowds). nil — or a config whose Enabled() is false — is a
	// strict no-op: the run is byte-identical to one without the layer.
	// It composes with Faults: both draw from private RNG streams and can
	// be active together, in Run and RunBatch alike.
	Adversary *adversary.Config

	// ServerCount switches the population to the paper's dedicated-node
	// case (C ∩ S = ∅): nodes [0, ServerCount) are cache-only servers
	// (kiosks, throwboxes, buses) and the remaining nodes are client-only
	// requesters with no cache. 0 (the default) is the pure-P2P case
	// where every node is both. Dedicated mode admits utilities with
	// unbounded h(0⁺) (inverse power, neglog) since immediate local
	// fulfillment cannot occur.
	ServerCount int
}

// Bin is one time-series bucket.
type Bin struct {
	T0, T1       float64
	Gain         float64 // Σ h(age) over fulfillments in the bin
	Fulfillments int
	Mandates     int          // the policy's pending mandates at T1 (Counters().Pending)
	Counts       alloc.Counts // replica snapshot at T1 when RecordCounts
}

// Result summarizes a run.
type Result struct {
	Duration     float64
	MeasureStart float64 // warmup boundary
	// TotalGain is Σ h(age) over fulfillments after warmup;
	// AvgUtilityRate is TotalGain divided by the measured span — directly
	// comparable to the analytic welfare U(x), which is a gain rate.
	TotalGain      float64
	AvgUtilityRate float64
	Fulfillments   int // fulfillments after warmup
	Immediate      int // immediate (local-cache) fulfillments after warmup
	Meetings       int
	ReplicasMade   int // successful cache writes by the policy
	FinalCounts    alloc.Counts
	Outstanding    int // unfulfilled requests at the end
	// OutstandingCost is the accrued waiting cost Σ min(0, h(age)) of the
	// requests still open at the horizon, plus the same charge for
	// requests wiped by node crashes (already included in TotalGain).
	OutstandingCost float64
	Bins            []Bin
	// ItemDelays, ItemGains and ItemFulfillments are the per-item
	// conformance instrumentation collected after warmup when
	// Config.RecordDelays is set (nil otherwise): fulfillment-delay
	// samples (0 for immediate local fulfillments), summed realized gain
	// and fulfillment counts, indexed by item. They are NOT part of
	// Result.Digest — the digest-stability regression test pins that
	// enabling them leaves every golden digest untouched.
	ItemDelays       [][]float64
	ItemGains        []float64
	ItemFulfillments []int
	Overhead         Overhead
	// Faults tallies injected faults and hardening reactions; nil when
	// fault injection is disabled.
	Faults *faults.Tally
	// Adversary tallies injected misbehavior and the hardened reaction's
	// interventions; nil when the adversary layer is disabled.
	Adversary *adversary.Tally
	// Hybrid tallies the hybrid-fidelity engine's accounting (fluid
	// fraction, controller windows, demotions); nil for every run that
	// did not go through RunHybrid, so plain runs digest identically to
	// builds without the engine.
	Hybrid *HybridTally
}

// Overhead tallies the communication cost of a run, in protocol units
// rather than bytes (content items dwarf everything else; mandates are a
// few bytes).
type Overhead struct {
	// MetadataMsgs counts cache/request summaries: two per meeting.
	MetadataMsgs int
	// ContentTransfers counts item payloads sent over the air:
	// non-immediate fulfillments plus replicas created by the policy.
	ContentTransfers int
	// MandateTransfers counts mandates moved between nodes by routing
	// (the policy's Counters().Moved).
	MandateTransfers int
}

// state is the live simulation state; it implements core.Cache.
type state struct {
	cfg     *Config
	items   int
	nodes   int
	servers int // nodes [0, servers) have caches; == nodes in pure P2P
	rho     int
	rng     *rand.Rand
	// uks holds each item's delay-utility (the Utilities override, else
	// the population default) resolved once at setup to a flat
	// family-tagged kernel (see kernel.go), so the
	// per-fulfillment h(age) and h(0⁺) evaluations in fulfillSide,
	// handleArrival, crash and the horizon accounting are a tag switch
	// instead of an interface call.
	uks []utilKernel
	// The caches, flat: node n's slots are slots[n·ρ : (n+1)·ρ] for
	// n < servers (dedicated clients have none). Slot order is the order
	// Write's reservoir sample and crash visit, so it is part of every
	// digest.
	slots   []int32 // item id per slot, -1 when empty
	stickyS []bool  // slot pinned?
	has     []bool  // node*items + item
	used    []int32 // per node: occupied slots (occupancy counter)
	counts  []int   // replicas per item
	stickyN []int   // per item: node holding the pinned replica, -1
	writes  int

	// Outstanding requests: per node, the items with open requests in
	// ascending order, each with its requests in arrival order. A meeting
	// walks the list directly, and the summation orders of crash and the
	// horizon accounting follow it.
	reqs arena.Lists[request]

	// Fault-injection state; inj is nil when the layer is off, and every
	// fault code path below is gated on it.
	inj       *faults.Injector
	tally     faults.Tally
	down      []bool // per node: currently crashed?
	truncated bool   // current meeting lost its content-transfer phase

	// Adversary state; adv is nil when the layer is off, and every
	// misbehavior code path below is gated on it.
	adv    *adversary.Injector
	atally adversary.Tally
}

// request is one open request. Its query counter — the meetings its
// node has had since it arrived, the hit included — is not stored:
// fulfillSide ticks the node's arena clock once per meeting, and m0 is
// that clock when the request arrived, so the counter at a hit is the
// clock's advance since m0, plus one (capped at core.MaxQueryCount + 1).
type request struct {
	t0 float64
	m0 int64 // the node's query clock (reqs.Clock) at arrival
}

// Nodes implements core.Cache.
func (s *state) Nodes() int { return s.nodes }

// Items implements core.Cache.
func (s *state) Items() int { return s.items }

// Has implements core.Cache.
func (s *state) Has(node, item int) bool { return s.has[node*s.items+item] }

// StickyNode implements core.Cache.
func (s *state) StickyNode(item int) int { return s.stickyN[item] }

// Count implements core.Cache: replicas of item across all caches, from
// the counter maintained by place/Write/crash (O(1)).
func (s *state) Count(item int) int { return s.counts[item] }

// FreeRider implements core.Cache: the adversary layer's free-rider role,
// false when the layer is off.
func (s *state) FreeRider(node int) bool { return s.adv != nil && s.adv.FreeRider(node) }

// DropMandate implements core.Cache: one in-flight mandate-loss draw from
// the fault injector's stream; false, drawing nothing, when the fault
// layer is off.
func (s *state) DropMandate() bool { return s.inj != nil && s.inj.DropMandate() }

// Write implements core.Cache: random replacement over non-sticky slots.
// During a truncated meeting the content payload cannot cross, so every
// write fails and the driving mandate stays pending for a later retry.
// A free-riding node refuses to donate cache space to the protocol, so
// policy writes onto it fail too.
func (s *state) Write(node, item int) bool {
	if s.truncated {
		return false
	}
	if s.FreeRider(node) {
		s.atally.RefusedWrites++
		return false
	}
	if s.Has(node, item) {
		return false
	}
	// Reservoir-sample a uniformly random non-sticky slot.
	lo, hi := s.slotRange(node)
	chosen := -1
	seen := 0
	for k := lo; k < hi; k++ {
		if s.stickyS[k] {
			continue
		}
		seen++
		if s.rng.IntN(seen) == 0 {
			chosen = k
		}
	}
	if chosen < 0 {
		return false
	}
	if old := s.slots[chosen]; old >= 0 {
		s.has[node*s.items+int(old)] = false
		s.counts[old]--
	} else {
		s.used[node]++
	}
	s.slots[chosen] = int32(item)
	s.has[node*s.items+item] = true
	s.counts[item]++
	s.writes++
	return true
}

// place puts item into a specific empty slot during initialization.
func (s *state) place(node, item int, sticky bool) error {
	if s.Has(node, item) {
		return fmt.Errorf("sim: node %d already holds item %d", node, item)
	}
	lo, hi := s.slotRange(node)
	for k := lo; k < hi; k++ {
		if s.slots[k] < 0 {
			s.slots[k] = int32(item)
			s.stickyS[k] = sticky
			s.has[node*s.items+item] = true
			s.used[node]++
			s.counts[item]++
			if sticky {
				s.stickyN[item] = node
			}
			return nil
		}
	}
	return fmt.Errorf("sim: node %d has no free slot for item %d", node, item)
}

// slotRange returns the bounds of node's slot row in slots and stickyS;
// the row is empty for a dedicated client.
func (s *state) slotRange(node int) (lo, hi int) {
	if node >= s.servers {
		return 0, 0
	}
	return node * s.rho, (node + 1) * s.rho
}

// freeSlots counts empty slots at a node, from the occupancy counter
// maintained by place/Write/crash (O(1), no slot-row walk).
func (s *state) freeSlots(node int) int {
	lo, hi := s.slotRange(node)
	return hi - lo - int(s.used[node])
}

// addRequest registers one open request for (node, item), stamped with
// the node's query clock. A node without open requests reads clock 0,
// and the block Push gives it starts at 0, so the stamp is right either
// way.
func (s *state) addRequest(node, item int, t float64) {
	s.reqs.Push(node, item, request{t0: t, m0: s.reqs.Clock(node)})
}

// reseed re-pins item's sticky replica at a node currently holding it —
// the hardening that keeps items from going extinct once their original
// sticky holder crashed. Called on the first fulfillment of the item
// after the loss.
func (s *state) reseed(node, item int) {
	lo, hi := s.slotRange(node)
	for k := lo; k < hi; k++ {
		if int(s.slots[k]) == item {
			s.stickyS[k] = true
			s.stickyN[item] = node
			s.tally.StickyReseeded++
			return
		}
	}
}

// crash wipes a node: its whole cache (sticky replicas included), its
// open requests, and — via Policy.OnCrash — any pending mandates the
// policy parked there. The accrued waiting cost of the wiped requests is
// charged exactly like the horizon accounting for outstanding requests.
func (s *state) crash(n int, t float64, res *Result) {
	s.down[n] = true
	s.tally.Crashes++
	lo, hi := s.slotRange(n)
	for k := lo; k < hi; k++ {
		it := s.slots[k]
		if it < 0 {
			continue
		}
		s.has[n*s.items+int(it)] = false
		s.counts[it]--
		s.tally.ReplicasLost++
		if s.stickyS[k] {
			s.stickyS[k] = false
			s.stickyN[it] = -1
			s.tally.StickyLost++
		}
		s.slots[k] = -1
	}
	s.used[n] = 0
	// Ascending item order: the float summation order — and hence the
	// Result — stays reproducible.
	ents := s.reqs.Entries(n)
	for i := range ents {
		item := ents[i].Item()
		uk := &s.uks[item]
		for _, rq := range ents[i].Vals() {
			s.tally.RequestsLost++
			age := t - rq.t0
			if age <= 0 {
				age = 1e-9
			}
			if h := uk.H(age); h < 0 && rq.t0 >= res.MeasureStart {
				res.TotalGain += h
				res.OutstandingCost += h
			}
		}
	}
	s.reqs.Clear(n)
	s.tally.MandatesCrashed += s.cfg.Policy.OnCrash(n)
}

// applyFault processes one churn event. Events are idempotent: a crash
// of an already-down node or a rejoin of an up node is ignored (the
// per-node churn clock and the mass-crash overlay can overlap).
func (s *state) applyFault(ev faults.Event, res *Result) {
	if ev.Down {
		if !s.down[ev.Node] {
			s.crash(ev.Node, ev.T, res)
		}
	} else if s.down[ev.Node] {
		s.down[ev.Node] = false
		s.tally.Rejoins++
	}
}

// runner is one simulation in flight: the live caches plus every loop
// variable of the event loop, factored out of the executors so the
// per-contact hot path (step) is a plain method — the allocation
// regression tests drive it contact by contact, and the serial and
// sharded executors share it verbatim.
type runner struct {
	cfg *Config
	s   *state
	res *Result

	proc     *demand.Process
	next     demand.Request
	ok       bool
	switched bool

	// Popularity-churn schedule (adversary layer); applied through the
	// demand process like DemandSwitch, one cursor step per shift.
	shifts demand.Schedule
	si     int

	fevents []faults.Event
	fi      int

	bins   []Bin
	binIdx int

	totalFulfilled, totalImmediate int // whole-run counts for overhead

	duration float64
	// passive elides the policy hooks: set when the policy is a
	// core.Static, whose hooks are no-ops, and the adversary layer is off
	// (its tallies piggyback on the hook call sites). Eliding a call to a
	// guaranteed no-op is invisible to every Result field — the kernel
	// equivalence tests pin it against a wrapped Static.
	passive bool
	// match is fulfillSide's buffer of matched entry positions, at most
	// ρ long, reused across meetings.
	match []int32
	// hasBins gates the per-contact flushTo call: with no time series the
	// call is a guaranteed no-op (flushTo returns immediately when
	// BinWidth ≤ 0), but it is not inlinable, so step skips it entirely.
	hasBins bool
}

// contactBatchSize is the reusable buffer the batched kernel streams
// contacts through: large enough to amortize the per-batch interface
// call and the source's per-call state loads to nothing, small enough
// (96 KiB) to stay cache- and memory-friendly. It matches the sharded
// executor's chunk size.
const contactBatchSize = 4096

// Run executes one simulation over cfg.Contacts: set-up, one step per
// contact in time order, then the horizon accounting. It is exactly a
// one-config RunBatch over that source.
func Run(cfg Config) (*Result, error) {
	src := cfg.Contacts
	cfg.Contacts = nil
	res, err := RunBatch([]Config{cfg}, src)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// buildRunner constructs the runner for an already-validated config and
// the shared source's (nodes, duration).
func buildRunner(cfg *Config, nodes int, duration float64) (*runner, error) {
	items := cfg.Pop.Items()
	servers := nodes
	if cfg.ServerCount > 0 {
		servers = cfg.ServerCount
	}
	s := &state{
		cfg:     cfg,
		items:   items,
		nodes:   nodes,
		servers: servers,
		rho:     cfg.Rho,
		rng:     rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5eed0fca11)),
		slots:   make([]int32, servers*cfg.Rho),
		stickyS: make([]bool, servers*cfg.Rho),
		has:     make([]bool, nodes*items),
		used:    make([]int32, nodes),
		counts:  make([]int, items),
		stickyN: make([]int, items),
		reqs:    arena.New[request](nodes),
	}
	for k := range s.slots {
		s.slots[k] = -1
	}
	for i := range s.stickyN {
		s.stickyN[i] = -1
	}
	s.uks = make([]utilKernel, items)
	for i := range s.uks {
		f := cfg.Utility
		if i < len(cfg.Utilities) && cfg.Utilities[i] != nil {
			f = cfg.Utilities[i]
		}
		s.uks[i] = kernelFor(f)
	}
	if err := s.initCaches(); err != nil {
		return nil, err
	}

	profile := cfg.Profile
	if len(profile.P) == 0 {
		// Every item gets the same uniform row over the clients (all nodes
		// in pure P2P, [servers, nodes) in the dedicated case); the demand
		// process builds one CDF for the shared row.
		first := 0
		if cfg.ServerCount > 0 {
			first = servers
		}
		row := make([]float64, nodes)
		for n := first; n < nodes; n++ {
			row[n] = 1 / float64(nodes-first)
		}
		profile = demand.Profile{P: make([][]float64, items)}
		for i := range profile.P {
			profile.P[i] = row
		}
	} else if cfg.ServerCount > 0 {
		for i, row := range profile.P {
			for n := 0; n < servers && n < len(row); n++ {
				if row[n] > 0 {
					return nil, fmt.Errorf("sim: profile gives demand to dedicated server %d (item %d)", n, i)
				}
			}
		}
	}
	proc, err := demand.NewProcess(cfg.Pop, profile, rand.New(rand.NewPCG(cfg.Seed^0xdeadcafe, cfg.Seed+77)))
	if err != nil {
		return nil, err
	}

	// Fault injection: a nil injector keeps every fault path dormant.
	s.inj, err = faults.New(cfg.Faults)
	if err != nil {
		return nil, err
	}
	var fevents []faults.Event
	if s.inj != nil {
		s.down = make([]bool, nodes)
		fevents = s.inj.Timeline(nodes, duration)
	}

	// Adversary layer: a nil injector keeps every misbehavior path
	// dormant; role assignment spends its private RNG stream entirely at
	// construction, so the layer never perturbs the other streams.
	s.adv, err = adversary.New(cfg.Adversary, nodes, items)
	if err != nil {
		return nil, err
	}
	var shifts demand.Schedule
	if s.adv != nil {
		shifts = s.adv.Schedule()
		s.atally.DishonestNodes, s.atally.FreeRiders = s.adv.Roles()
	}

	cfg.Policy.Init(s)

	res := &Result{
		Duration:     duration,
		MeasureStart: cfg.WarmupFrac * duration,
		FinalCounts:  make(alloc.Counts, items),
	}
	if cfg.RecordDelays {
		res.ItemDelays = make([][]float64, items)
		res.ItemGains = make([]float64, items)
		res.ItemFulfillments = make([]int, items)
		// Size each item's delay buffer for its expected post-warmup
		// sample count (one sample per fulfillment, at most one per
		// request): mean demand over the measured span plus a 4σ Poisson
		// margin. In steady state record then appends into retained
		// storage instead of regrowing 1→2→4→…, which is what the
		// AllocsPerRun regression test pins; the cap keeps pathological
		// durations from turning the margin into a giant up-front arena.
		span := duration - res.MeasureStart
		for i := range res.ItemDelays {
			mean := cfg.Pop.Rates[i] * span
			capHint := int(mean+4*math.Sqrt(mean)) + 8
			if capHint > 1<<16 {
				capHint = 1 << 16
			}
			res.ItemDelays[i] = make([]float64, 0, capHint)
		}
	}
	r := &runner{
		cfg:      cfg,
		s:        s,
		res:      res,
		proc:     proc,
		switched: cfg.DemandSwitch == nil,
		shifts:   shifts,
		fevents:  fevents,
		binIdx:   -1,
		duration: duration,
		match:    make([]int32, 0, cfg.Rho),
	}
	if cfg.BinWidth > 0 {
		// The whole time series is appended bin by bin (flushTo); its
		// final length is known up front, so reserve it once and keep the
		// batch steady state allocation-free.
		r.bins = make([]Bin, 0, int(duration/cfg.BinWidth)+2)
	}
	_, static := cfg.Policy.(core.Static)
	r.passive = static && s.adv == nil
	r.hasBins = cfg.BinWidth > 0
	r.next, r.ok = proc.Next()
	return r, nil
}

// flushTo advances the time-series bins up to time t.
func (r *runner) flushTo(t float64) {
	cfg := r.cfg
	if cfg.BinWidth <= 0 {
		return
	}
	for target := int(t / cfg.BinWidth); r.binIdx < target; {
		r.closeBin()
		r.binIdx++
		r.bins = append(r.bins, Bin{T0: float64(r.binIdx) * cfg.BinWidth, T1: float64(r.binIdx+1) * cfg.BinWidth})
	}
}

// closeBin finalizes the open bin, if any, with its closing snapshots:
// the replica counts when RecordCounts is set, and the policy's pending
// mandates. The counts copy straight from the live counters — one
// allocation per bin, not two through an intermediate conversion.
func (r *runner) closeBin() {
	if r.binIdx < 0 {
		return
	}
	b := &r.bins[r.binIdx]
	if r.cfg.RecordCounts {
		b.Counts = make(alloc.Counts, len(r.s.counts))
		copy(b.Counts, r.s.counts)
	}
	b.Mandates = r.cfg.Policy.Counters().Pending
}

// record books one fulfillment of item with the given delay (0 for an
// immediate local fulfillment).
func (r *runner) record(t, gain float64, item int, delay float64, immediate bool) {
	r.totalFulfilled++
	if immediate {
		r.totalImmediate++
	}
	if r.cfg.BinWidth > 0 {
		r.flushTo(t)
		r.bins[r.binIdx].Gain += gain
		r.bins[r.binIdx].Fulfillments++
	}
	if t >= r.res.MeasureStart {
		r.res.TotalGain += gain
		r.res.Fulfillments++
		if immediate {
			r.res.Immediate++
		}
		if r.cfg.RecordDelays {
			r.res.ItemDelays[item] = append(r.res.ItemDelays[item], delay)
			r.res.ItemGains[item] += gain
			r.res.ItemFulfillments[item]++
		}
	}
}

// handleArrival processes one demand-process request.
func (r *runner) handleArrival(rq demand.Request) {
	s := r.s
	if s.inj != nil && s.down[rq.Node] {
		// The device is off: the request is never issued.
		s.tally.DroppedArrivals++
		return
	}
	if s.Has(rq.Node, rq.Item) {
		// Pure P2P immediate fulfillment from the local cache.
		r.record(rq.T, s.uks[rq.Item].H0(), rq.Item, 0, true)
		if s.inj != nil && !r.cfg.NoSticky && s.stickyN[rq.Item] < 0 {
			s.reseed(rq.Node, rq.Item)
		}
		if r.passive {
			// Static policy, no adversary: OnFulfill is a no-op, skip the
			// virtual call (and the role lookup it would precede).
			return
		}
		if s.adv != nil && s.adv.FreeRider(rq.Node) {
			// A free-rider consumes without running the protocol.
			s.atally.SuppressedReactions++
			return
		}
		r.cfg.Policy.OnFulfill(s, rq.Node, rq.Node, rq.Item, 0, 0, rq.T)
		return
	}
	s.addRequest(rq.Node, rq.Item, rq.T)
}

// fulfillSide serves node n's open requests from peer's cache. The
// meeting ticks n's query clock once, truncated or refused meetings
// included: that single tick is every open request's counter++, read
// back at fulfillment as clock − m0 (see request). Only the matched items
// are then visited: the node's open items that peer caches, found by
// walking whichever of the two lists is shorter — peer's ρ slots, each
// binary-searched in n's sorted block, or n's block, each checked with
// Has — and fulfilled in ascending item order. Every request of a
// matched item is fulfilled; its queue is emptied and removed after the
// walk. The matches are fixed before any OnFulfill hook runs; the hooks
// mint mandates and write no cache (writes happen in OnMeeting).
func (r *runner) fulfillSide(n, peer int, t float64) {
	s := r.s
	clk := s.reqs.Clock(n)
	s.reqs.Tick(n)
	// A truncated meeting completes the metadata exchange (the query
	// counters advance) but loses the item payload: every request stays
	// open and retries at the next meeting with a holder.
	if s.truncated {
		return
	}
	ents := s.reqs.Entries(n)
	hits := r.match[:0]
	if lo, hi := s.slotRange(peer); len(ents) > hi-lo {
		for k := lo; k < hi; k++ {
			item := int(s.slots[k])
			if item < 0 {
				continue
			}
			i := arena.Search(ents, item)
			if i == len(ents) || ents[i].Item() != item {
				continue
			}
			// Insertion-sort the ≤ ρ hits into ascending item order.
			j := len(hits)
			hits = append(hits, 0)
			for ; j > 0 && hits[j-1] > int32(i); j-- {
				hits[j] = hits[j-1]
			}
			hits[j] = int32(i)
		}
	} else {
		for i := range ents {
			if s.Has(peer, ents[i].Item()) {
				hits = append(hits, int32(i))
			}
		}
	}
	if len(hits) == 0 {
		return
	}
	// Misbehavior roles for this side of the meeting, resolved once.
	var nFreeRides, nDishonest bool
	if s.adv != nil {
		if s.adv.FreeRider(peer) {
			// A free-riding peer denies holding the items outright: the
			// requests stay open, exactly as if its cache missed.
			s.atally.RefusedServes += len(hits)
			return
		}
		nFreeRides = s.adv.FreeRider(n)
		nDishonest = s.adv.Dishonest(n)
	}
	for _, i := range hits {
		e := &ents[i]
		item := e.Item()
		uk := &s.uks[item]
		if r.passive {
			// Static policy, no adversary: the role switch is dead and
			// OnFulfill is a no-op — record the fulfillments without the
			// per-request virtual call.
			for _, rq := range e.Vals() {
				age := t - rq.t0
				r.record(t, uk.H(age), item, age, false)
			}
		} else {
			for _, rq := range e.Vals() {
				q := int(min(clk-rq.m0, core.MaxQueryCount)) + 1
				age := t - rq.t0
				r.record(t, uk.H(age), item, age, false)
				switch {
				case nFreeRides:
					// A free-rider consumes without running the protocol.
					s.atally.SuppressedReactions++
					continue
				case nDishonest:
					if inflated := s.adv.Inflate(q); inflated != q {
						q = inflated
						s.atally.InflatedReports++
					}
				}
				r.cfg.Policy.OnFulfill(s, n, peer, item, q, age, t)
			}
		}
		if s.inj != nil && !s.cfg.NoSticky && s.stickyN[item] < 0 {
			s.reseed(peer, item)
		}
		e.Clear()
	}
	s.reqs.Compact(n)
}

// advanceTo interleaves request arrivals and churn events in time
// order up to the given horizon (the next contact, or the end of the
// trace). With fault injection off there are no churn events and this
// reduces exactly to the original arrival drain.
func (r *runner) advanceTo(horizon float64) error {
	for {
		if r.fi < len(r.fevents) && r.fevents[r.fi].T <= horizon &&
			(!r.ok || r.next.T > r.fevents[r.fi].T) {
			r.s.applyFault(r.fevents[r.fi], r.res)
			r.fi++
			continue
		}
		if r.ok && r.next.T <= horizon {
			if !r.switched && r.next.T >= r.cfg.DemandSwitchTime {
				if err := r.proc.SetPopularity(*r.cfg.DemandSwitch); err != nil {
					return err
				}
				r.switched = true
			}
			for r.si < len(r.shifts) && r.next.T >= r.shifts[r.si].T {
				if err := r.proc.SetPopularity(r.shifts[r.si].Pop); err != nil {
					return err
				}
				r.s.atally.DemandShifts++
				r.si++
			}
			r.handleArrival(r.next)
			r.next, r.ok = r.proc.Next()
			continue
		}
		return nil
	}
}

// step consumes one contact, already contract-checked by the executor:
// the fused per-contact hot path every executor shares. In steady state
// (no new (node, item) request queues, no time series) it performs zero
// heap allocations — pinned by the AllocsPerRun regression test.
func (r *runner) step(c trace.Contact) error {
	// Inline advanceTo's first-iteration test: when no churn event and no
	// arrival is due before this contact — the common case at realistic
	// demand — the (non-inlinable) call is skipped outright. The guard is
	// exactly the loop's own exit condition, so behavior is identical.
	if (r.fi < len(r.fevents) && r.fevents[r.fi].T <= c.T) || (r.ok && r.next.T <= c.T) {
		if err := r.advanceTo(c.T); err != nil {
			return err
		}
	}
	if r.hasBins {
		r.flushTo(c.T)
	}
	s := r.s
	if s.inj != nil && (s.down[c.A] || s.down[c.B]) {
		// A crashed node cannot meet anyone; the contact is lost.
		s.tally.SkippedContacts++
		return nil
	}
	r.res.Meetings++
	if s.inj != nil && s.inj.TruncateMeeting() {
		s.truncated = true
		s.tally.TruncatedMeetings++
	}
	// A side with no outstanding requests has nothing to fulfill; skipping
	// the call also skips its adversary role lookups. With a passive
	// policy OnMeeting is a no-op and the virtual call is elided. Both
	// cuts are behavior-identical: fulfillSide on an empty list returns
	// before any mutation, and passivity is only set when no adversary
	// tallies can mutate at hook call sites.
	if !s.reqs.Empty(c.A) {
		r.fulfillSide(c.A, c.B, c.T)
	}
	if !s.reqs.Empty(c.B) {
		r.fulfillSide(c.B, c.A, c.T)
	}
	if !r.passive {
		r.cfg.Policy.OnMeeting(s, c.A, c.B, c.T)
	}
	s.truncated = false
	return nil
}

// finish drains the tail of the run and assembles the Result.
func (r *runner) finish() (*Result, error) {
	cfg, s, res := r.cfg, r.s, r.res
	// Drain arrivals (they can no longer be fulfilled but belong to
	// Outstanding) and churn events up to the end of the trace.
	if err := r.advanceTo(r.duration); err != nil {
		return nil, err
	}
	r.flushTo(r.duration)
	// Finalize the last open bin and drop any bin starting at or past the
	// end of the trace.
	if cfg.BinWidth > 0 {
		r.closeBin()
		for len(r.bins) > 0 && r.bins[len(r.bins)-1].T0 >= r.duration {
			r.bins = r.bins[:len(r.bins)-1]
		}
	}

	// alloc.Counts is []int, so the live counters copy over directly — no
	// temporary conversion slice.
	copy(res.FinalCounts, s.counts)
	// Requests still outstanding at the horizon have already suffered
	// their waiting cost even though no fulfillment event recorded it:
	// charge min(0, h(age)) per open request. Without this, starving an
	// item entirely (e.g. DOM under a waiting-cost utility) would look
	// free. Reward-type utilities (h ≥ 0) are unaffected — their gain is
	// only earned on actual fulfillment.
	end := r.duration
	for n := 0; n < s.nodes; n++ {
		// Node then ascending item order: the float summation order is
		// fixed, so the Result digest is reproducible run to run.
		ents := s.reqs.Entries(n)
		for i := range ents {
			item := ents[i].Item()
			uk := &s.uks[item]
			for _, rq := range ents[i].Vals() {
				res.Outstanding++
				age := end - rq.t0
				if age <= 0 {
					age = 1e-9
				}
				if h := uk.H(age); h < 0 && rq.t0 >= res.MeasureStart {
					res.TotalGain += h
					res.OutstandingCost += h
				}
			}
		}
	}
	span := r.duration - res.MeasureStart
	if span > 0 {
		res.AvgUtilityRate = res.TotalGain / span
	}
	res.ReplicasMade = s.writes
	res.Bins = r.bins
	n := cfg.Policy.Counters()
	res.Overhead = Overhead{
		MetadataMsgs:     2 * res.Meetings,
		ContentTransfers: r.totalFulfilled - r.totalImmediate + s.writes,
		MandateTransfers: n.Moved,
	}
	if s.inj != nil {
		s.tally.MandatesDropped, s.tally.MandatesExpired, s.tally.MandatesAbandoned = n.Dropped, n.Expired, n.Abandoned
		t := s.tally
		res.Faults = &t
	}
	if s.adv != nil {
		s.atally.CountersCapped, s.atally.ReactionsClamped = n.Capped, n.Clamped
		t := s.atally
		res.Adversary = &t
	}
	return res, nil
}

// validate checks one configuration against the shared contact source's
// (already checked) dimensions. It also normalizes cfg.WarmupFrac in
// place.
func validate(cfg *Config, nodes int) error {
	switch {
	case cfg.Utility == nil && len(cfg.Utilities) == 0:
		return fmt.Errorf("sim: nil utility")
	case cfg.Policy == nil:
		return fmt.Errorf("sim: nil policy")
	case cfg.Rho <= 0:
		return fmt.Errorf("sim: ρ=%d", cfg.Rho)
	case cfg.Pop.Items() == 0:
		return fmt.Errorf("sim: empty catalog")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return err
	}
	if err := cfg.Adversary.Validate(cfg.Pop.Items()); err != nil {
		return err
	}
	if cfg.ServerCount < 0 || cfg.ServerCount >= nodes {
		if cfg.ServerCount != 0 {
			return fmt.Errorf("sim: ServerCount %d must be in (0, %d)", cfg.ServerCount, nodes)
		}
	}
	if len(cfg.Utilities) > 0 && len(cfg.Utilities) != cfg.Pop.Items() {
		return fmt.Errorf("sim: %d per-item utilities for %d items", len(cfg.Utilities), cfg.Pop.Items())
	}
	if cfg.ServerCount == 0 {
		if cfg.Utility != nil && !utility.SupportsPureP2P(cfg.Utility) {
			return fmt.Errorf("sim: %s has unbounded h(0+); use the dedicated-node case (ServerCount > 0)", cfg.Utility.Name())
		}
		for i, f := range cfg.Utilities {
			if f != nil && !utility.SupportsPureP2P(f) {
				return fmt.Errorf("sim: item %d utility %s has unbounded h(0+); use the dedicated-node case", i, f.Name())
			}
		}
	}
	switch {
	case cfg.WarmupFrac == 0:
		cfg.WarmupFrac = 0.2
	case cfg.WarmupFrac < 0:
		cfg.WarmupFrac = 0
	case cfg.WarmupFrac >= 1:
		return fmt.Errorf("sim: warmup fraction %g", cfg.WarmupFrac)
	}
	effServers := nodes
	if cfg.ServerCount > 0 {
		effServers = cfg.ServerCount
	}
	if !cfg.NoSticky && cfg.Pop.Items() > effServers*cfg.Rho {
		return fmt.Errorf("sim: %d items exceed global capacity %d; sticky replicas impossible", cfg.Pop.Items(), effServers*cfg.Rho)
	}
	if cfg.DemandSwitch != nil && cfg.DemandSwitch.Items() != cfg.Pop.Items() {
		return fmt.Errorf("sim: demand switch catalog %d != %d", cfg.DemandSwitch.Items(), cfg.Pop.Items())
	}
	if cfg.InitialPlacement != nil {
		p := cfg.InitialPlacement
		if !cfg.NoSticky {
			return fmt.Errorf("sim: InitialPlacement requires NoSticky")
		}
		if p.Items != cfg.Pop.Items() || p.Servers != effServers || p.Rho > cfg.Rho {
			return fmt.Errorf("sim: placement shape %dx%d/ρ%d incompatible with %dx%d/ρ%d",
				p.Items, p.Servers, p.Rho, cfg.Pop.Items(), effServers, cfg.Rho)
		}
	}
	return nil
}

// initCaches lays out the initial allocation: sticky replicas first (one
// per item unless disabled), then the remaining copies of the desired
// initial allocation spread across the least-loaded nodes lacking the
// item.
func (s *state) initCaches() error {
	cfg := s.cfg
	if cfg.InitialPlacement != nil {
		p := cfg.InitialPlacement
		for i := 0; i < p.Items; i++ {
			for m := 0; m < p.Servers; m++ {
				if p.Has(i, m) {
					if err := s.place(m, i, false); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	want := cfg.Initial
	if want == nil {
		want = alloc.Uniform(s.items, s.servers, s.rho)
	}
	if len(want) != s.items {
		return fmt.Errorf("sim: initial allocation covers %d items, catalog has %d", len(want), s.items)
	}
	if err := want.Validate(s.servers, s.rho); err != nil {
		return err
	}
	if !cfg.NoSticky {
		for i := 0; i < s.items; i++ {
			node := i % s.servers
			if s.freeSlots(node) == 0 {
				return fmt.Errorf("sim: node %d cannot hold sticky replica of item %d (ρ too small)", node, i)
			}
			if s.Has(node, i) {
				continue
			}
			if err := s.place(node, i, true); err != nil {
				return err
			}
		}
	}
	// Remaining copies: decreasing need, least-loaded servers without the
	// item. The greedy is "lowest-index server among those with the most
	// free slots, excluding holders"; scanning all servers per copy made
	// this O(copies·N) — at million-node scale with want[i] ≈ N·ρ/items,
	// effectively O(N²·ρ). The counting-sort traversal below picks the
	// identical server sequence in O(items·N + copies): within one item,
	// a placement only decrements the free count of a server that
	// thereby becomes a holder (excluded from that item's later picks),
	// so the remaining candidates' order is static for the whole item —
	// walk the free-count buckets from fullest to 1, ascending index,
	// skipping holders. Between items, demote each used server one
	// bucket, preserving ascending index order by subsequence merge.
	return spreadInitial(s.items, s.servers, s.rho, want,
		s.freeSlots,
		func(i int) int { return s.counts[i] },
		func(n, i int) bool { return s.Has(n, i) },
		func(n, i int) error { return s.place(n, i, false) })
}

// spreadInitial is the initial-allocation greedy shared by the event
// engine (state.initCaches) and the hybrid engine, which replays it
// against per-community accumulators so the fluid starts from the exact
// allocation the full simulation would place. The callbacks abstract
// the cache state: freeSlots, count and has describe it (after any
// sticky seeding), place commits one copy. The node sequence is a pure
// function of (items, servers, rho, want, sticky layout), so both
// replayers see identical placements.
func spreadInitial(items, servers, rho int, want alloc.Counts, freeSlots func(int) int, count func(int) int, has func(n, i int) bool, place func(n, i int) error) error {
	order := make([]int, items)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return want[order[a]] > want[order[b]] })
	// The free-count buckets share one array of all servers, fullest
	// bucket first: bucket f is flat[end[f+1]:end[f]], ascending by server
	// index, where end[f] counts the servers with at least f free slots.
	// Demoting servers from bucket f to f−1 only moves them across the
	// boundary of two adjacent buckets, so the array never regrows.
	end := make([]int, rho+2) // end[rho+1] = 0
	for n := 0; n < servers; n++ {
		end[freeSlots(n)]++
	}
	for f := rho - 1; f >= 0; f-- {
		end[f] += end[f+1]
	}
	flat := make([]int32, servers)
	next := make([]int, rho+1) // next free position of each bucket
	copy(next, end[1:])
	for n := 0; n < servers; n++ {
		f := freeSlots(n)
		flat[next[f]] = int32(n) // ascending by construction
		next[f]++
	}
	var moved []int32 // servers demoted out of the current bucket
	for _, i := range order {
		need := want[i] - count(i)
		for f := rho; f >= 1 && need > 0; f-- {
			lo, hi := end[f+1], end[f]
			// Scan bucket f in place: servers that take a copy move to
			// moved, the rest are compacted toward lo.
			moved = moved[:0]
			w := lo
			pos := lo
			for ; pos < hi && need > 0; pos++ {
				n := int(flat[pos])
				if !has(n, i) {
					if err := place(n, i); err != nil {
						return err
					}
					need--
					moved = append(moved, int32(n))
					continue
				}
				flat[w] = int32(n)
				w++
			}
			if len(moved) == 0 {
				continue
			}
			w += copy(flat[w:], flat[pos:hi])
			// Bucket f now ends at w; bucket f−1 grows to [w, end[f−1]).
			// Merge moved into it front to back: the write position never
			// passes the read position in flat, so the merge is in place.
			end[f] = w
			j := hi
			for _, n := range moved {
				for j < end[f-1] && flat[j] < n {
					flat[w] = flat[j]
					w++
					j++
				}
				flat[w] = n
				w++
			}
		}
		// need may still be positive: no server without the item has a
		// free slot, so the remainder of this item is dropped — exactly
		// the per-copy greedy's bail-out.
	}
	return nil
}
