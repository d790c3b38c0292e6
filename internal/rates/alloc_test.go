package rates

import (
	"runtime"
	"testing"
)

// allocBytes returns the cumulative heap bytes allocated while running
// fn, single-threaded. TotalAlloc is monotone (GC cannot shrink it), so
// the measurement is stable without disabling the collector.
func allocBytes(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSetupAllocLinear is the alloc-regression gate on the O(N + C²)
// setup claim: building a structured model plus its sharded sampler at
// N = 200_000 must stay within a small per-node byte budget — the dense
// path's O(N²) alias state (~12·N²/2 bytes ≈ 240 GB here) exceeds the
// bound by six orders of magnitude, so any accidental densification
// trips this immediately. The budget (32 B/node plus 1 MB of C²-and-
// constant slack, 7.4 MB in all) is about twice the measured 3.6 MB
// (18 B/node: the node → community map, the member lists and the
// member-weight vector), loose enough for allocator and toolchain drift.
// Uniform communities build array-free member tables; 12 B/node of
// alias arrays plus 16 B/node of their build temporaries (49 B/node in
// all) would fail it.
func TestSetupAllocLinear(t *testing.T) {
	const nodes = 200_000
	const perNodeBudget = 32
	const slack = 1 << 20
	var m *Model
	got := allocBytes(func() {
		var err error
		m, err = NewCommunity(CommunityConfig{Nodes: nodes, Communities: 32, In: 0.5, Out: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSharded(m, 1000, 1, 0); err != nil {
			t.Fatal(err)
		}
	})
	if budget := uint64(nodes*perNodeBudget + slack); got > budget {
		t.Errorf("setup allocated %d bytes at N=%d (budget %d): O(N + C²) regressed", got, nodes, budget)
	}
	t.Logf("setup allocated %d bytes at N=%d (%.1f B/node)", got, nodes, float64(got)/nodes)

	// Linearity cross-check: doubling N must not quadruple the cost.
	got2 := allocBytes(func() {
		m2, err := NewCommunity(CommunityConfig{Nodes: 2 * nodes, Communities: 32, In: 0.5, Out: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSharded(m2, 1000, 1, 0); err != nil {
			t.Fatal(err)
		}
	})
	if got2 > 3*got {
		t.Errorf("doubling N scaled setup allocation %d → %d (>3×): superlinear setup", got, got2)
	}
}

// TestSourceNextZeroAlloc pins the O(1) per-contact claim: draining the
// single-group sampler allocates nothing after construction.
func TestSourceNextZeroAlloc(t *testing.T) {
	m, err := NewCommunity(CommunityConfig{Nodes: 1000, Communities: 8, In: 0.2, Out: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSharded(m, 10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(2000, func() {
		src.Next()
	})
	if avg != 0 {
		t.Errorf("ShardedSource.Next allocates %.2f objects per contact, want 0", avg)
	}
}
