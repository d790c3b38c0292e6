package sim

import (
	"fmt"
	"math/bits"
	"testing"
)

// FuzzBitRows checks set, clear, has and zero against a []bool model
// over fuzzed (nodes, items), read as one more than the fuzzed bytes,
// the op stream decoded three bytes at a time. The seeds cross the
// stride boundaries: rows sharing a word, a row of exactly one word,
// items 63 and 64, multi-word rows and the last node's row. After every
// op each node's bits must match the model and no bit between a row's
// items and its stride may be set.
func FuzzBitRows(f *testing.F) {
	f.Add(uint8(29), uint8(2), []byte{0, 29, 2, 0, 0, 0, 1, 29, 2, 2, 28, 0})
	f.Add(uint8(4), uint8(0), []byte{0, 4, 0, 0, 3, 0, 2, 4, 0})
	f.Add(uint8(2), uint8(63), []byte{0, 2, 63, 0, 1, 0, 1, 2, 63, 2, 1, 0})
	f.Add(uint8(2), uint8(64), []byte{0, 2, 64, 0, 2, 63, 0, 0, 64, 2, 2, 0})
	f.Add(uint8(3), uint8(129), []byte{0, 3, 129, 0, 3, 0, 0, 2, 127, 2, 3, 0, 1, 2, 127})
	f.Add(uint8(16), uint8(32), []byte{0, 16, 32, 0, 15, 31, 2, 16, 0})
	f.Fuzz(func(t *testing.T, nodes8, items8 uint8, ops []byte) {
		nodes, items := int(nodes8)%40+1, int(items8)%200+1
		b := newBitRows(nodes, items)
		stride := 1
		for stride < items {
			stride *= 2
		}
		model := make([]bool, nodes*items)
		for len(ops) >= 3 {
			op, n, i := ops[0]%3, int(ops[1])%nodes, int(ops[2])%items
			ops = ops[3:]
			switch op {
			case 0:
				b.set(n, i)
				model[n*items+i] = true
			case 1:
				b.clear(n, i)
				model[n*items+i] = false
			case 2:
				b.zero(n)
				clear(model[n*items : (n+1)*items])
			}
			for m := 0; m < nodes; m++ {
				for it := 0; it < items; it++ {
					if b.has(m, it) != model[m*items+it] {
						t.Fatalf("N=%d I=%d: has(%d, %d) = %v, model %v", nodes, items, m, it, !model[m*items+it], model[m*items+it])
					}
				}
			}
			// Every set bit of the store lies inside some row's items.
			for k, w := range b.w {
				for ; w != 0; w &= w - 1 {
					bit := k*64 + bits.TrailingZeros64(w)
					if n, it := bit/stride, bit%stride; n >= nodes || it >= items {
						t.Fatalf("N=%d I=%d: stray bit %d (node %d, item %d)", nodes, items, bit, n, it)
					}
				}
			}
		}
	})
}

// checkBitRows checks every node's cache row against its slots and its
// open row against its request list: each item they name must have its
// bit set, at n·stride + i with the stride the catalog rounded up to a
// power of two, and no other bit may be set anywhere in the store.
func checkBitRows(s *state) string {
	stride := 1
	for stride < s.items {
		stride *= 2
	}
	set := func(w []uint64, n, i int) bool {
		k := n*stride + i
		return w[k/64]>>(k%64)&1 != 0
	}
	var cached, open int
	for n := 0; n < s.nodes; n++ {
		lo, hi := s.slotRange(n)
		for _, it := range s.slots[lo:hi] {
			if it < 0 {
				continue
			}
			if cached++; !set(s.cache.w, n, int(it)) {
				return fmt.Sprintf("node %d caches item %d, its cache bit is clear", n, it)
			}
		}
		ents := s.reqs.Entries(n)
		for i := range ents {
			if ents[i].Len() == 0 {
				return fmt.Sprintf("node %d keeps an empty queue for item %d", n, ents[i].Item())
			}
			if open++; !set(s.open.w, n, ents[i].Item()) {
				return fmt.Sprintf("node %d has item %d open, its open bit is clear", n, ents[i].Item())
			}
		}
	}
	if got := onesCount(s.cache.w); got != cached {
		return fmt.Sprintf("%d cache bits set for %d cached items", got, cached)
	}
	if got := onesCount(s.open.w); got != open {
		return fmt.Sprintf("%d open bits set for %d open items", got, open)
	}
	return ""
}

func onesCount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// TestBitRowsMatchState drives runners contact by contact and checks,
// after every step, that each node's cache row holds exactly the items
// in its slots and its open row exactly the items of its request list.
// The scenarios cover QCR writes and mandate routing, UNI, dedicated
// servers (whose clients' cache rows stay empty), churn crashes,
// truncated meetings and free-riding and dishonest nodes, over catalogs
// that pack several rows into a word (1, 4, 50), fill one word (64), or
// span several (65, 130, 4000).
func TestBitRowsMatchState(t *testing.T) {
	for _, items := range []int{1, 4, 50, 64, 65, 130, 4000} {
		t.Run(fmt.Sprintf("I=%d", items), func(t *testing.T) {
			var fulfilled, writes, crashes, truncated, refused int
			for _, rho := range []int{1, 3, 5} {
				for k, cfg := range catalogScenarios(t, items, rho) {
					src := cfg.Contacts
					cfg.Contacts = nil
					runners, err := newRunners([]Config{cfg}, src)
					if err != nil {
						t.Fatal(err)
					}
					r := runners[0]
					if msg := checkBitRows(r.s); msg != "" {
						t.Fatalf("ρ=%d scenario %d at setup: %s", rho, k, msg)
					}
					for c, ok := src.Next(); ok; c, ok = src.Next() {
						if err := r.step(c); err != nil {
							t.Fatal(err)
						}
						if msg := checkBitRows(r.s); msg != "" {
							t.Fatalf("ρ=%d scenario %d after the contact at t=%g: %s", rho, k, c.T, msg)
						}
					}
					fulfilled += r.res.Fulfillments
					writes += r.s.writes
					crashes += r.s.tally.Crashes
					truncated += r.s.tally.TruncatedMeetings
					refused += r.s.atally.RefusedServes
				}
			}
			if fulfilled == 0 || writes == 0 || crashes == 0 || truncated == 0 || refused == 0 {
				t.Errorf("%d fulfillments, %d writes, %d crashes, %d truncated meetings, %d refused serves; want all positive",
					fulfilled, writes, crashes, truncated, refused)
			}
		})
	}
}
