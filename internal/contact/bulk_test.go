package contact

import (
	"math/rand/v2"
	"testing"

	"impatience/internal/trace"
)

// randomMatrix draws a rate matrix with a random sparsity pattern —
// including occasional zero rows — so the property sweep covers skewed
// CDFs and alias tables, not just the uniform case.
func randomMatrix(rng *rand.Rand, nodes int) *trace.RateMatrix {
	rm := trace.NewRateMatrix(nodes)
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			if rng.Float64() < 0.3 {
				continue // leave the pair at rate 0
			}
			rm.Set(a, b, 0.01+rng.Float64())
		}
	}
	return rm
}

// drainNext fully drains src through the scalar Next path.
func drainNext(src trace.Source) []trace.Contact {
	var out []trace.Contact
	for {
		c, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, c)
	}
}

// drainBulk drains src through NextBatch with the given buffer size,
// interleaving a scalar Next every few batches (mix > 0) to pin the
// contract that the two entry points share one cursor and one RNG.
func drainBulk(src trace.Source, batch, mix int) []trace.Contact {
	var out []trace.Contact
	buf := make([]trace.Contact, batch)
	for i := 0; ; i++ {
		if mix > 0 && i%mix == mix-1 {
			c, ok := src.Next()
			if !ok {
				return out
			}
			out = append(out, c)
			continue
		}
		n := trace.FillBatch(src, buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestNextBatchMatchesNextProperty is the bulk-seam property test: for
// 200+ random configurations of every streaming generator, draining via
// NextBatch (with random batch sizes, optionally interleaved with
// scalar Next calls) must yield the exact contact sequence that
// repeated Next yields from an identically seeded twin. The seam
// buffers, never reorders: same RNG draws, same contacts, bit for bit.
func TestNextBatchMatchesNextProperty(t *testing.T) {
	meta := rand.New(rand.NewPCG(0xb41c, 0x5eed))
	kinds := []struct {
		name  string
		build func(rm *trace.RateMatrix, duration float64, seed uint64) (trace.Source, error)
	}{
		{"stream", func(rm *trace.RateMatrix, duration float64, seed uint64) (trace.Source, error) {
			return NewStream(rm, duration, rand.New(rand.NewPCG(seed, seed+3)))
		}},
		{"discrete", func(rm *trace.RateMatrix, duration float64, seed uint64) (trace.Source, error) {
			return NewDiscreteStream(rm, duration, 0.5, rand.New(rand.NewPCG(seed, seed+3)))
		}},
		{"replay", func(rm *trace.RateMatrix, duration float64, seed uint64) (trace.Source, error) {
			return NewReplayStream(rm, duration, seed, seed+12)
		}},
	}
	const trials = 80 // × 3 generators = 240 random configs
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				nodes := 2 + meta.IntN(12)
				duration := 5 + meta.Float64()*100
				seed := meta.Uint64()
				batch := 1 + meta.IntN(600)
				mix := meta.IntN(4) // 0: pure bulk; else interleave Next
				rm := randomMatrix(meta, nodes)

				ref, err := k.build(rm, duration, seed)
				if err != nil {
					t.Fatalf("trial %d: build ref: %v", trial, err)
				}
				bulk, err := k.build(rm, duration, seed)
				if err != nil {
					t.Fatalf("trial %d: build bulk: %v", trial, err)
				}
				want := drainNext(ref)
				got := drainBulk(bulk, batch, mix)
				if len(got) != len(want) {
					t.Fatalf("trial %d (nodes=%d batch=%d mix=%d): %d contacts via bulk, %d via Next",
						trial, nodes, batch, mix, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d (nodes=%d batch=%d mix=%d): contact %d = %+v via bulk, %+v via Next",
							trial, nodes, batch, mix, i, got[i], want[i])
					}
				}
				// Both drains must agree the stream is exhausted.
				if c, ok := bulk.Next(); ok {
					t.Fatalf("trial %d: bulk source yielded %+v after exhaustion", trial, c)
				}
			}
		})
	}
}

// TestNextBatchEmptyBuffer pins the degenerate contract: an empty buffer
// fills zero contacts and must not disturb the stream.
func TestNextBatchEmptyBuffer(t *testing.T) {
	s, err := NewHomogeneousStream(6, 0.2, 50, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if n := s.NextBatch(nil); n != 0 {
		t.Fatalf("NextBatch(nil) = %d, want 0", n)
	}
	first, ok := s.Next()
	if !ok {
		t.Fatal("stream empty after no-op NextBatch")
	}
	twin, err := NewHomogeneousStream(6, 0.2, 50, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := twin.Next()
	if first != want {
		t.Fatalf("first contact after empty NextBatch = %+v, want %+v", first, want)
	}
}

// TestEmpiricalRatesFromReplayStream: the batched rates pass over a
// ReplayStream gives, bit for bit, the matrix of a contact-by-contact
// accumulation over the same stream's Next.
func TestEmpiricalRatesFromReplayStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	rm := randomMatrix(rng, 12)
	const duration = 400.0
	open := func() *ReplayStream {
		s, err := NewReplayStream(rm, duration, 21, 22)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := trace.NewRateMatrix(rm.Nodes)
	contacts := drainNext(open())
	if len(contacts) < 3000 {
		t.Fatalf("only %d contacts; the stream should span several batches", len(contacts))
	}
	for _, c := range contacts {
		want.Set(c.A, c.B, want.At(c.A, c.B)+1/duration)
	}
	got, err := trace.EmpiricalRatesFrom(open())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want.Rates() {
		if got.Rates()[i] != w {
			t.Fatalf("pair %d: rate %v != %v", i, got.Rates()[i], w)
		}
	}
}
