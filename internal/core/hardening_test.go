package core

import "testing"

// Tests for the fault-hardening machinery: mandate TTL expiry, bounded
// retry of failed content transfers, crash cleanup, and in-flight drops.
// The conservation law under faults is
//
//	created = pending + executed + expired + abandoned + dropped + crashed.

func conserved(t *testing.T, q *QCR, crashed int) {
	t.Helper()
	n := q.Counters()
	got := n.Pending + n.Executed + n.Expired + n.Abandoned + n.Dropped + crashed
	if got != n.Created {
		t.Errorf("conservation: pending+executed+expired+abandoned+dropped+crashed = %d, created = %d",
			got, n.Created)
	}
}

func TestMandateTTLExpires(t *testing.T) {
	q := newQCR(false)
	q.MandateTTL = 10
	c := newFakeCache(2, 5)
	q.Init(c)
	q.addMandates(0, 3, 2, 0) // born at t=0, nobody holds item 3

	q.OnMeeting(c, 0, 1, 20) // age 20 > TTL 10
	if got := q.Counters().Pending; got != 0 {
		t.Fatalf("pending after expiry = %d, want 0", got)
	}
	if expired := q.Counters().Expired; expired != 2 {
		t.Errorf("expired = %d, want 2", expired)
	}
	conserved(t, q, 0)
}

func TestMandateTTLKeepsFresh(t *testing.T) {
	q := newQCR(false)
	q.MandateTTL = 10
	c := newFakeCache(2, 5)
	q.Init(c)
	q.addMandates(0, 3, 2, 15) // born at t=15

	q.OnMeeting(c, 0, 1, 20) // age 5 < TTL 10
	if got := q.count(0, 3); got != 2 {
		t.Fatalf("pending fresh mandates = %d, want 2", got)
	}
	if expired := q.Counters().Expired; expired != 0 {
		t.Errorf("expired = %d, want 0", expired)
	}
	conserved(t, q, 0)
}

func TestBoundedRetryAbandons(t *testing.T) {
	q := newQCR(false)
	q.MaxAttempts = 2
	c := newFakeCache(2, 5)
	c.has[[2]int{0, 3}] = true // node 0 holds item 3
	c.writeOK = false          // every content transfer fails (truncated meetings)
	q.Init(c)
	q.addMandates(0, 3, 1, 0)

	q.OnMeeting(c, 0, 1, 1) // attempt 1 fails, mandate retained
	if got := q.count(0, 3); got != 1 {
		t.Fatalf("pending after first failure = %d, want 1 (retry)", got)
	}
	q.OnMeeting(c, 0, 1, 2) // attempt 2 fails, budget exhausted
	if got := q.Counters().Pending; got != 0 {
		t.Fatalf("pending after exhausting retries = %d, want 0", got)
	}
	if abandoned := q.Counters().Abandoned; abandoned != 1 {
		t.Errorf("abandoned = %d, want 1", abandoned)
	}
	conserved(t, q, 0)
}

func TestUnboundedRetryKeepsMandate(t *testing.T) {
	q := newQCR(false) // MaxAttempts 0: retry forever (pre-hardening behavior)
	c := newFakeCache(2, 5)
	c.has[[2]int{0, 3}] = true
	c.writeOK = false
	q.Init(c)
	q.addMandates(0, 3, 1, 0)

	for k := 0; k < 10; k++ {
		q.OnMeeting(c, 0, 1, float64(k))
	}
	if got := q.count(0, 3); got != 1 {
		t.Fatalf("pending = %d, want 1 (unbounded retry never abandons)", got)
	}
	conserved(t, q, 0)
}

func TestOnCrashClearsMandates(t *testing.T) {
	q := newQCR(true)
	c := newFakeCache(3, 5)
	q.Init(c)
	q.addMandates(0, 1, 3, 0)
	q.addMandates(0, 2, 2, 0)
	q.addMandates(1, 2, 4, 0)

	if got := q.OnCrash(0); got != 5 {
		t.Fatalf("OnCrash(0) = %d, want 5", got)
	}
	if got := q.Counters().Pending; got != 4 {
		t.Fatalf("pending after crash = %d, want 4 (node 1 untouched)", got)
	}
	conserved(t, q, 5)
}

func TestDropInFlight(t *testing.T) {
	q := newQCR(true)
	q.StrictSource = true
	c := newFakeCache(2, 5)
	c.has[[2]int{1, 3}] = true // node 1 is item 3's sole holder
	c.dropAll = true           // the fault layer loses every handoff
	q.Init(c)
	q.addMandates(0, 3, 2, 0)

	// Routing sends both mandates toward the sole holder; each is lost in
	// flight.
	q.OnMeeting(c, 0, 1, 1)
	if got := q.Counters().Pending; got != 0 {
		t.Fatalf("pending = %d, want 0 (all dropped)", got)
	}
	if dropped := q.Counters().Dropped; dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if moved := q.Counters().Moved; moved != 0 {
		t.Errorf("moved = %d, want 0 (a dropped mandate never arrives)", moved)
	}
	conserved(t, q, 0)
}

// TestStarvationAfterHolderCrash is the satellite scenario: the only
// holder of an item crashes, leaving mandates for it circulating among
// the survivors with no way to execute. With a TTL they expire at a later
// meeting; without one they circulate forever.
func TestStarvationAfterHolderCrash(t *testing.T) {
	build := func(ttl float64) (*QCR, *fakeCache) {
		q := newQCR(true)
		q.StrictSource = true
		q.MandateTTL = ttl
		c := newFakeCache(3, 5)
		c.has[[2]int{2, 4}] = true // node 2 is item 4's only holder
		q.Init(c)
		q.addMandates(0, 4, 2, 0)
		q.addMandates(1, 4, 1, 0)
		return q, c
	}
	crash := func(q *QCR, c *fakeCache, node int) int {
		delete(c.has, [2]int{node, 4}) // the simulator wipes the cache...
		return q.OnCrash(node)         // ...and notifies the policy
	}

	// Hardened: TTL 50. The holder crashes at t=5; survivor meetings keep
	// routing the now-unexecutable mandates until expiry clears them.
	q, c := build(50)
	crashed := crash(q, c, 2)
	if crashed != 0 {
		t.Fatalf("holder had %d pending mandates, want 0", crashed)
	}
	for k := 1; k <= 10; k++ {
		q.OnMeeting(c, 0, 1, 5+float64(k)*10) // t = 15 … 105
	}
	if got := q.Counters().Pending; got != 0 {
		t.Fatalf("hardened QCR: %d mandates still circulating, want 0", got)
	}
	if expired := q.Counters().Expired; expired != 3 {
		t.Errorf("expired = %d, want 3", expired)
	}
	conserved(t, q, crashed)

	// Unhardened contrast: TTL 0 leaves them circulating forever.
	q0, c0 := build(0)
	crash(q0, c0, 2)
	for k := 1; k <= 10; k++ {
		q0.OnMeeting(c0, 0, 1, 5+float64(k)*10)
	}
	if got := q0.Counters().Pending; got != 3 {
		t.Fatalf("unhardened QCR: pending = %d, want 3 (starved mandates never clear)", got)
	}
	conserved(t, q0, 0)
}
