package arena

import (
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// model is the reference the property test checks Lists against: the
// values queued for each (node, item), with empty queues deleted.
type model map[[2]int][]int

// check compares l with m entry by entry and checks the structural
// invariants: ascending items per node, no empty entry kept, no two live
// entries sharing storage, and no value storage or block allocated beyond
// the peak number of live entries or nodes (drained ones are reused).
func check(t *testing.T, step int, l *Lists[int], m model, nodes, peak, peakNodes int) {
	t.Helper()
	live, liveNodes := 0, 0
	type span struct{ lo, hi uintptr }
	var spans []span
	for n := 0; n < nodes; n++ {
		if !l.Empty(n) {
			liveNodes++
		}
		last := -1
		ents := l.Entries(n)
		for i := range ents {
			item := ents[i].Item()
			if item <= last {
				t.Fatalf("step %d: node %d lists item %d after %d", step, n, item, last)
			}
			last = item
			vals := ents[i].Vals()
			if len(vals) == 0 {
				t.Fatalf("step %d: node %d keeps an empty entry for item %d", step, n, item)
			}
			if want := m[[2]int{n, item}]; !slices.Equal(vals, want) {
				t.Fatalf("step %d: (%d, %d) holds %v, want %v", step, n, item, vals, want)
			}
			full := vals[:cap(vals)]
			lo := uintptr(unsafe.Pointer(&full[0]))
			spans = append(spans, span{lo, lo + uintptr(cap(vals))*unsafe.Sizeof(vals[0])})
			live++
		}
	}
	if live != len(m) {
		t.Fatalf("step %d: %d live entries, model has %d", step, live, len(m))
	}
	if want := nodesOf(m); liveNodes != want {
		t.Fatalf("step %d: %d nodes with entries, model has %d", step, liveNodes, want)
	}
	slices.SortFunc(spans, func(a, b span) int {
		if a.lo < b.lo {
			return -1
		}
		if a.lo > b.lo {
			return 1
		}
		return 0
	})
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("step %d: two live entries share a backing array", step)
		}
	}
	total := 0
	perItem := map[int]int{}
	for k, v := range m {
		total += len(v)
		perItem[k[1]] += len(v)
	}
	if got := l.Total(); got != total {
		t.Fatalf("step %d: Total %d, want %d", step, got, total)
	}
	for item, want := range perItem {
		if got := l.TotalItem(item); got != want {
			t.Fatalf("step %d: TotalItem(%d) = %d, want %d", step, item, got, want)
		}
	}
	if allocated := live + len(l.spare); allocated > peak {
		t.Fatalf("step %d: %d value buffers allocated for a peak of %d live entries", step, allocated, peak)
	}
	if allocated := len(l.blocks) - 1; allocated > peakNodes || len(l.free) != allocated-liveNodes {
		t.Fatalf("step %d: %d blocks (%d free) for %d live nodes, peak %d", step, allocated, len(l.free), liveNodes, peakNodes)
	}
}

// nodesOf counts the nodes with at least one queue in m.
func nodesOf(m model) int {
	seen := map[int]bool{}
	for k := range m {
		seen[k[0]] = true
	}
	return len(seen)
}

// TestListsMatchModel drives random add / fulfil / crash / pop /
// route-split sequences against the map reference model.
func TestListsMatchModel(t *testing.T) {
	const (
		nodes = 6
		items = 8
		steps = 20000
	)
	rng := rand.New(rand.NewPCG(1, 2))
	l := New[int](nodes)
	m := model{}
	next, peak, peakNodes := 0, 0, 0
	// clk is the clock model: one tick per step for the node the step
	// picks, back to 0 whenever a node holds no entries.
	var clk [nodes]int64
	for step := 0; step < steps; step++ {
		n, item := rng.IntN(nodes), rng.IntN(items)
		key := [2]int{n, item}
		l.Tick(n)
		if !l.Empty(n) {
			clk[n]++
		}
		switch op := rng.IntN(10); {
		case op < 4: // add: append a few values to (n, item)
			for k := 1 + rng.IntN(3); k > 0; k-- {
				l.Push(n, item, next)
				m[key] = append(m[key], next)
				next++
			}
		case op < 6: // fulfil: drain every queue of n whose item is odd
			ents := l.Entries(n)
			for i := range ents {
				if it := ents[i].Item(); it%2 == 1 {
					ents[i].Clear()
					delete(m, [2]int{n, it})
				}
			}
			l.Compact(n)
		case op < 7: // crash: clear the whole node
			want := 0
			for k, v := range m {
				if k[0] == n {
					want += len(v)
					delete(m, k)
				}
			}
			if got := l.Clear(n); got != want {
				t.Fatalf("step %d: Clear(%d) dropped %d values, want %d", step, n, got, want)
			}
		case op < 8: // pop: drop the oldest value of (n, item), if any
			if len(l.Find(n, item)) > 0 {
				c := l.Walk(n)
				c.Seek(item)
				c.Set(c.Vals()[1:])
				if m[key] = m[key][1:]; len(m[key]) == 0 {
					delete(m, key)
				}
				l.Compact(n) // removes the queue if the pop emptied it
			} else if l.Find(n, item) != nil {
				t.Fatalf("step %d: Find returned an empty queue", step)
			}
		default: // route: merge-walk two nodes, moving the oldest values across
			p := (n + 1 + rng.IntN(nodes-1)) % nodes
			ca, cb := l.Walk(n), l.Walk(p)
			live := len(m) // entries linked so far, empty ones included
			for {
				it, ok := ca.Item()
				if ib, okb := cb.Item(); okb && (!ok || ib < it) {
					it, ok = ib, true
				}
				if !ok {
					break
				}
				ka, kb := [2]int{n, it}, [2]int{p, it}
				// Seek inserts an empty entry on the side without one; it
				// holds storage until Compact.
				_, hasA := m[ka]
				_, hasB := m[kb]
				if !hasA || !hasB {
					live++
					peak = max(peak, live)
					if l.Empty(n) || l.Empty(p) {
						peakNodes = max(peakNodes, nodesOf(m)+1)
					}
				}
				ca.Seek(it)
				cb.Seek(it)
				va, vb := ca.Vals(), cb.Vals()
				// Move ⌈half⌉ of a's values to b, oldest first, after
				// popping one from b's front (a consume).
				if len(vb) > 0 {
					vb = vb[1:]
					m[kb] = m[kb][1:]
				}
				k := (len(va) + 1) / 2
				vb = append(vb, va[:k]...)
				m[kb] = append(m[kb], m[ka][:k]...)
				va = va[k:]
				m[ka] = m[ka][k:]
				ca.Set(va)
				cb.Set(vb)
				for _, key := range [][2]int{ka, kb} {
					if len(m[key]) == 0 {
						delete(m, key)
					}
				}
				ca.Next()
				cb.Next()
			}
			l.Compact(n)
			l.Compact(p)
		}
		peak = max(peak, len(m))
		peakNodes = max(peakNodes, nodesOf(m))
		check(t, step, &l, m, nodes, peak, peakNodes)
		for x := range clk {
			if l.Empty(x) {
				clk[x] = 0
			}
			if got := l.Clock(x); got != clk[x] {
				t.Fatalf("step %d: node %d clock %d, want %d", step, x, got, clk[x])
			}
		}
	}
}

// TestClock pins the block clock's life cycle: a node without a block
// ignores ticks and reads 0, the clock survives Push and Compact while
// the node keeps its block, and a block released by one node restarts
// at 0 when another takes it.
func TestClock(t *testing.T) {
	l := New[int](2)
	l.Tick(0)
	if l.Clock(0) != 0 || l.clock[0] != 0 {
		t.Fatalf("a tick without a block moved the clock: Clock %d, clock[0] %d", l.Clock(0), l.clock[0])
	}
	l.Push(0, 5, 50)
	for k := 0; k < 3; k++ {
		l.Tick(0)
	}
	l.Push(0, 2, 20) // inserted in front of item 5
	l.Push(0, 9, 90)
	l.Tick(0)
	ents := l.Entries(0)
	ents[0].Clear()
	ents[2].Clear()
	l.Compact(0) // item 5 still open: the node keeps its block
	if got := l.Clock(0); got != 4 {
		t.Fatalf("clock %d after 4 ticks across Push and Compact, want 4", got)
	}
	if got := l.Clock(1); got != 0 {
		t.Fatalf("untouched node reads clock %d", got)
	}
	id := l.head[0]
	l.Clear(0) // the last entry drains: the block goes back to the pool
	if l.Clock(0) != 0 {
		t.Fatalf("drained node reads clock %d", l.Clock(0))
	}
	l.Tick(0)
	l.Push(1, 3, 30)
	if l.head[1] != id {
		t.Fatalf("node 1 took block %d, want the released block %d", l.head[1], id)
	}
	if got := l.Clock(1); got != 0 {
		t.Fatalf("reused block starts at clock %d, want 0", got)
	}
	l.Tick(1)
	l.Push(0, 1, 10) // a fresh block
	if l.Clock(0) != 0 || l.Clock(1) != 1 || l.clock[0] != 0 {
		t.Fatalf("clocks %d, %d (clock[0] %d), want 0, 1 (0)", l.Clock(0), l.Clock(1), l.clock[0])
	}
}

// TestFindAndPush covers lookups on empty and missing entries and the
// sorted insertion Push performs.
func TestFindAndPush(t *testing.T) {
	l := New[int](2)
	if !l.Empty(0) || l.Find(0, 3) != nil {
		t.Fatal("new store not empty")
	}
	for _, it := range []int{5, 1, 3, 9, 3} {
		l.Push(1, it, it)
	}
	var got []int
	for _, e := range l.Entries(1) {
		got = append(got, e.Item())
	}
	if !slices.Equal(got, []int{1, 3, 5, 9}) {
		t.Fatalf("node 1 lists %v, want [1 3 5 9]", got)
	}
	if !slices.Equal(l.Find(1, 3), []int{3, 3}) {
		t.Fatalf("(1, 3) holds %v", l.Find(1, 3))
	}
	if l.Find(1, 4) != nil || !l.Empty(0) {
		t.Fatal("lookup of a missing entry found one")
	}
}

// TestPopFrontInPlace pins that popping the front of a long queue leaves
// the survivors where they are (an offset, no copy) until the popped
// prefix outgrows them, and that a queue popped at the front and
// appended at the back stops allocating.
func TestPopFrontInPlace(t *testing.T) {
	l := New[int](1)
	for v := 0; v < 1000; v++ {
		l.Push(0, 7, v)
	}
	pop := func() {
		c := l.Walk(0)
		c.Seek(7)
		c.Set(c.Vals()[1:])
	}
	first := &l.Find(0, 7)[0]
	pop()
	e := &l.Entries(0)[0]
	if e.off != 1 || &e.buf[0] != first {
		t.Fatalf("one pop left off %d, moved array %v", e.off, &e.buf[0] != first)
	}
	for k := 1; k < 500; k++ {
		pop()
	}
	if e.off != 0 || e.Len() != 500 || e.Vals()[0] != 500 {
		t.Fatalf("after 500 pops: off %d, %d values from %d; want the survivors moved to the front", e.off, e.Len(), e.Vals()[0])
	}
	next := 1000
	allocs := testing.AllocsPerRun(2000, func() {
		c := l.Walk(0)
		c.Seek(7)
		c.Set(append(c.Vals()[1:], next))
		next++
	})
	if allocs != 0 {
		t.Fatalf("pop+append steady state allocates %.1f per op", allocs)
	}
	want := next - 500
	for i, v := range l.Find(0, 7) {
		if v != want+i {
			t.Fatalf("value %d is %d, want %d: FIFO order lost", i, v, want+i)
		}
	}
}
