package rates

import (
	"math/rand/v2"
	"testing"

	"impatience/internal/trace"
)

// TestShardedNextBatchMatchesNext: the bulk seam over the group-merged
// structured source must reproduce the scalar Next sequence exactly —
// same heap pops, same contacts — for random community shapes, group
// counts and batch sizes, including interleaved scalar draws mid-stream.
func TestShardedNextBatchMatchesNext(t *testing.T) {
	meta := rand.New(rand.NewPCG(0x5a4d, 0xbeef))
	for trial := 0; trial < 40; trial++ {
		comms := 2 + meta.IntN(5)
		nodes := comms * (2 + meta.IntN(6))
		m, err := NewCommunity(CommunityConfig{
			Nodes:       nodes,
			Communities: comms,
			In:          0.05 + meta.Float64()*0.2,
			Out:         0.005 + meta.Float64()*0.02,
		})
		if err != nil {
			t.Fatalf("trial %d: NewCommunity: %v", trial, err)
		}
		duration := 10 + meta.Float64()*40
		seed := meta.Uint64()
		groups := meta.IntN(8) // 0 selects DefaultGroups
		batch := 1 + meta.IntN(300)

		ref, err := NewSharded(m, duration, seed, groups)
		if err != nil {
			t.Fatalf("trial %d: NewSharded ref: %v", trial, err)
		}
		bulk, err := NewSharded(m, duration, seed, groups)
		if err != nil {
			t.Fatalf("trial %d: NewSharded bulk: %v", trial, err)
		}
		var want []trace.Contact
		for {
			c, ok := ref.Next()
			if !ok {
				break
			}
			want = append(want, c)
		}
		var got []trace.Contact
		buf := make([]trace.Contact, batch)
		for i := 0; ; i++ {
			if i%3 == 2 { // interleave: bulk and scalar share one cursor
				c, ok := bulk.Next()
				if !ok {
					break
				}
				got = append(got, c)
				continue
			}
			n := bulk.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (nodes=%d groups=%d batch=%d): %d contacts via bulk, %d via Next",
				trial, nodes, groups, batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (nodes=%d groups=%d batch=%d): contact %d = %+v via bulk, %+v via Next",
					trial, nodes, groups, batch, i, got[i], want[i])
			}
		}
	}
}
