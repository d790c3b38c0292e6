package core

import (
	"math"
	"testing"

	"impatience/internal/utility"
)

// fakeCache is a minimal core.Cache for protocol-level tests.
type fakeCache struct {
	nodes, items int
	has          map[[2]int]bool
	sticky       map[int]int
	writeOK      bool
	writes       [][2]int
	freeRiders   map[int]bool // nodes that refuse to serve or carry mandates
	dropAll      bool         // every mandate handoff is lost in flight
}

func newFakeCache(nodes, items int) *fakeCache {
	return &fakeCache{
		nodes: nodes, items: items,
		has:     make(map[[2]int]bool),
		sticky:  make(map[int]int),
		writeOK: true,
	}
}

func (f *fakeCache) Nodes() int        { return f.nodes }
func (f *fakeCache) Items() int        { return f.items }
func (f *fakeCache) Has(n, i int) bool { return f.has[[2]int{n, i}] }
func (f *fakeCache) StickyNode(item int) int {
	if n, ok := f.sticky[item]; ok {
		return n
	}
	return -1
}
func (f *fakeCache) Count(item int) int {
	var c int
	for n := 0; n < f.nodes; n++ {
		if f.Has(n, item) {
			c++
		}
	}
	return c
}
func (f *fakeCache) FreeRider(n int) bool { return f.freeRiders[n] }
func (f *fakeCache) DropMandate() bool    { return f.dropAll }
func (f *fakeCache) Write(n, i int) bool {
	if !f.writeOK || f.Has(n, i) {
		return false
	}
	f.has[[2]int{n, i}] = true
	f.writes = append(f.writes, [2]int{n, i})
	return true
}

func newQCR(routing bool) *QCR {
	q := &QCR{
		Reaction:       PathReplication(1),
		MandateRouting: routing,
		Seed:           7,
	}
	return q
}

func TestStaticPolicyIsInert(t *testing.T) {
	c := newFakeCache(3, 3)
	s := Static{}
	s.Init(c)
	s.OnFulfill(c, 0, 1, 2, 5, 0, 1.0)
	s.OnMeeting(c, 0, 1, 1.0)
	if len(c.writes) != 0 {
		t.Error("static policy wrote to the cache")
	}
	if s.OnCrash(0) != 0 || s.Counters() != (Counters{}) {
		t.Error("static policy reports mandates")
	}
	if s.Name() != "static" {
		t.Errorf("Name=%q", s.Name())
	}
	if (Static{Label: "uni"}).Name() != "uni" {
		t.Error("label ignored")
	}
}

func TestTunedReactionMatchesPsi(t *testing.T) {
	f := utility.Step{Tau: 10}
	r := TunedReaction(f, 0.05, 50, 1)
	for _, y := range []int{1, 3, 10, 100} {
		want := utility.Psi(f, 0.05, 50, float64(y))
		if got := r(y); math.Abs(got-want) > 1e-12 {
			t.Errorf("y=%d: got %g, want %g", y, got, want)
		}
	}
	if r(0) != 0 {
		t.Error("ψ(0) must be 0 (immediate fulfillment spawns no mandates)")
	}
	scaled := TunedReaction(f, 0.05, 50, 3)
	if math.Abs(scaled(5)-3*r(5)) > 1e-12 {
		t.Error("scale not applied")
	}
}

func TestReactionBaselines(t *testing.T) {
	pr := PathReplication(2)
	if pr(4) != 8 || pr(0) != 0 {
		t.Errorf("path replication: %g, %g", pr(4), pr(0))
	}
	cr := ConstantReaction(1.5)
	if cr(1) != 1.5 || cr(100) != 1.5 || cr(0) != 0 {
		t.Errorf("constant reaction wrong")
	}
}

func TestOnFulfillCreatesMandatesInExpectation(t *testing.T) {
	c := newFakeCache(2, 1)
	q := newQCR(true)
	q.Reaction = func(y int) float64 { return 2.5 }
	q.Init(c)
	const n = 20000
	for k := 0; k < n; k++ {
		q.OnFulfill(c, 0, 1, 0, 3, 0, 0)
	}
	got := float64(q.Counters().Pending) / n
	if math.Abs(got-2.5) > 0.05 {
		t.Errorf("mean mandates per fulfillment %g, want 2.5 (randomized rounding)", got)
	}
}

func TestOnFulfillIntegerReactionExact(t *testing.T) {
	c := newFakeCache(2, 1)
	q := newQCR(true)
	q.Reaction = func(y int) float64 { return 3 }
	q.Init(c)
	q.OnFulfill(c, 0, 1, 0, 5, 0, 0)
	if q.Counters().Pending != 3 {
		t.Errorf("got %d mandates, want exactly 3", q.Counters().Pending)
	}
}

func TestMeetingExecutesOneMandate(t *testing.T) {
	c := newFakeCache(2, 1)
	c.has[[2]int{0, 0}] = true // node 0 holds item 0; node 1 does not
	q := newQCR(true)
	q.Init(c)
	q.addMandates(0, 0, 5, 0)
	q.OnMeeting(c, 0, 1, 1)
	if len(c.writes) != 1 || c.writes[0] != [2]int{1, 0} {
		t.Fatalf("writes=%v, want item 0 copied to node 1", c.writes)
	}
	if q.Counters().Pending != 4 {
		t.Errorf("mandates after execution: %d, want 4", q.Counters().Pending)
	}
}

func TestMeetingExecutesTowardHolderlessSide(t *testing.T) {
	// Mandate sits on the node LACKING the copy; execution writes to it.
	c := newFakeCache(2, 1)
	c.has[[2]int{1, 0}] = true
	q := newQCR(true)
	q.Init(c)
	q.addMandates(0, 0, 1, 0)
	q.OnMeeting(c, 0, 1, 1)
	if len(c.writes) != 1 || c.writes[0] != [2]int{0, 0} {
		t.Fatalf("writes=%v, want item copied to node 0", c.writes)
	}
	if q.Counters().Pending != 0 {
		t.Errorf("mandate not consumed: %d", q.Counters().Pending)
	}
}

func TestMeetingNoExecutionWithoutCopy(t *testing.T) {
	c := newFakeCache(2, 1) // neither node holds the item
	q := newQCR(true)
	q.Init(c)
	q.addMandates(0, 0, 4, 0)
	q.OnMeeting(c, 0, 1, 1)
	if len(c.writes) != 0 {
		t.Error("replica created out of thin air")
	}
	if q.Counters().Pending != 4 {
		t.Errorf("mandates changed: %d", q.Counters().Pending)
	}
	// Routing: split evenly between the two nodes.
	if q.count(0, 0) != 2 || q.count(1, 0) != 2 {
		t.Errorf("split %d/%d, want 2/2", q.count(0, 0), q.count(1, 0))
	}
}

func TestMeetingBothHoldNoRewriting(t *testing.T) {
	c := newFakeCache(2, 1)
	c.has[[2]int{0, 0}] = true
	c.has[[2]int{1, 0}] = true
	q := newQCR(true)
	q.Init(c)
	q.addMandates(0, 0, 4, 0)
	q.OnMeeting(c, 0, 1, 1)
	if len(c.writes) != 0 {
		t.Error("wrote despite both holding")
	}
	if q.Counters().Pending != 4 {
		t.Errorf("mandates consumed without rewriting: %d", q.Counters().Pending)
	}
}

func TestMeetingBothHoldWithRewriting(t *testing.T) {
	c := newFakeCache(2, 1)
	c.has[[2]int{0, 0}] = true
	c.has[[2]int{1, 0}] = true
	q := newQCR(true)
	q.Rewriting = true
	q.Init(c)
	q.addMandates(0, 0, 4, 0)
	q.OnMeeting(c, 0, 1, 1)
	if q.Counters().Pending != 3 {
		t.Errorf("rewriting should consume one mandate: %d left", q.Counters().Pending)
	}
}

func TestRoutingToSoleHolder(t *testing.T) {
	// Write fails (peer cache pinned) so exactly one node holds the item;
	// all mandates must flow to the holder.
	c := newFakeCache(2, 1)
	c.has[[2]int{0, 0}] = true
	c.writeOK = false
	q := newQCR(true)
	q.Init(c)
	q.addMandates(1, 0, 6, 0)
	q.OnMeeting(c, 0, 1, 1)
	if q.count(0, 0) != 6 || q.count(1, 0) != 0 {
		t.Errorf("mandates %d/%d, want all 6 at the holder", q.count(0, 0), q.count(1, 0))
	}
}

func TestRoutingStickyPreference(t *testing.T) {
	// Both hold the item, node 0 is its sticky node → ceil(2/3) to node 0.
	c := newFakeCache(2, 1)
	c.has[[2]int{0, 0}] = true
	c.has[[2]int{1, 0}] = true
	c.sticky[0] = 0
	q := newQCR(true)
	q.Init(c)
	q.addMandates(1, 0, 6, 0)
	q.OnMeeting(c, 0, 1, 1)
	if q.count(0, 0) != 4 || q.count(1, 0) != 2 {
		t.Errorf("mandates %d/%d, want 4/2 (2/3 to sticky)", q.count(0, 0), q.count(1, 0))
	}
}

func TestNoRoutingKeepsMandatesAtOrigin(t *testing.T) {
	c := newFakeCache(2, 2)
	q := newQCR(false)
	q.Init(c)
	q.addMandates(0, 1, 5, 0)
	q.OnMeeting(c, 0, 1, 1)
	if q.count(0, 1) != 5 || q.count(1, 1) != 0 {
		t.Errorf("no-routing moved mandates: %d/%d", q.count(0, 1), q.count(1, 1))
	}
}

func TestNoRoutingStillExecutes(t *testing.T) {
	c := newFakeCache(2, 1)
	c.has[[2]int{0, 0}] = true
	q := newQCR(false)
	q.Init(c)
	q.addMandates(0, 0, 3, 0)
	q.OnMeeting(c, 0, 1, 1)
	if len(c.writes) != 1 {
		t.Fatalf("no-routing QCR must still execute mandates: writes=%v", c.writes)
	}
	if q.count(0, 0) != 2 {
		t.Errorf("executed mandate not deducted at origin: %d", q.count(0, 0))
	}
}

func TestMandatesForAccounting(t *testing.T) {
	c := newFakeCache(3, 2)
	q := newQCR(true)
	q.Init(c)
	q.addMandates(0, 0, 2, 0)
	q.addMandates(1, 0, 1, 0)
	q.addMandates(2, 1, 4, 0)
	if q.MandatesFor(0) != 3 || q.MandatesFor(1) != 4 {
		t.Errorf("MandatesFor wrong: %d, %d", q.MandatesFor(0), q.MandatesFor(1))
	}
	if q.Counters().Pending != 7 {
		t.Errorf("pending mandates = %d", q.Counters().Pending)
	}
}

func TestNames(t *testing.T) {
	if newQCR(true).Name() != "qcr" {
		t.Error("qcr name")
	}
	if newQCR(false).Name() != "qcr-no-routing" {
		t.Error("no-routing name")
	}
}

func TestOnFulfillIgnoresZeroAndNaN(t *testing.T) {
	c := newFakeCache(2, 1)
	q := newQCR(true)
	q.Reaction = func(y int) float64 { return math.NaN() }
	q.Init(c)
	q.OnFulfill(c, 0, 1, 0, 3, 0, 0)
	if q.Counters().Pending != 0 {
		t.Error("NaN reaction created mandates")
	}
}
