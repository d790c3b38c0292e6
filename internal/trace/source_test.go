package trace

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{
		Nodes:    4,
		Duration: 100,
		Contacts: []Contact{
			{T: 1, A: 0, B: 1},
			{T: 5, A: 2, B: 3},
			{T: 5, A: 0, B: 2},
			{T: 99, A: 1, B: 3},
		},
	}
}

func TestSliceSourceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	src := tr.Source()
	if src.Nodes() != tr.Nodes || src.Duration() != tr.Duration {
		t.Fatalf("dims %d/%g, want %d/%g", src.Nodes(), src.Duration(), tr.Nodes, tr.Duration)
	}
	got, err := Collect(src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(got.Contacts) != len(tr.Contacts) {
		t.Fatalf("%d contacts, want %d", len(got.Contacts), len(tr.Contacts))
	}
	for i := range got.Contacts {
		if got.Contacts[i] != tr.Contacts[i] {
			t.Fatalf("contact %d = %+v, want %+v", i, got.Contacts[i], tr.Contacts[i])
		}
	}
	// A drained source stays drained.
	if _, ok := src.Next(); ok {
		t.Error("drained source yielded a contact")
	}
}

func TestPairFromIndexRoundTrip(t *testing.T) {
	for _, nodes := range []int{2, 3, 5, 17, 50, 257, 1000} {
		idx := 0
		for a := 0; a < nodes; a++ {
			for b := a + 1; b < nodes; b++ {
				if got := PairIndex(nodes, a, b); got != idx {
					t.Fatalf("n=%d: PairIndex(%d,%d)=%d, want %d", nodes, a, b, got, idx)
				}
				ga, gb := PairFromIndex(nodes, idx)
				if ga != a || gb != b {
					t.Fatalf("n=%d: PairFromIndex(%d)=(%d,%d), want (%d,%d)", nodes, idx, ga, gb, a, b)
				}
				idx++
			}
		}
	}
}

// TestPairFromIndexLargeN spot-checks the float inversion where the
// quadratic is large enough for rounding to matter.
func TestPairFromIndexLargeN(t *testing.T) {
	const nodes = 200000
	for _, idx := range []int{0, 1, nodes - 2, nodes - 1, NumPairs(nodes) / 2, NumPairs(nodes) - 2, NumPairs(nodes) - 1} {
		a, b := PairFromIndex(nodes, idx)
		if a < 0 || b >= nodes || a >= b {
			t.Fatalf("PairFromIndex(%d) = (%d,%d) invalid", idx, a, b)
		}
		if got := PairIndex(nodes, a, b); got != idx {
			t.Fatalf("round trip of idx %d via (%d,%d) gave %d", idx, a, b, got)
		}
	}
}

func TestStreamReaderMatchesRead(t *testing.T) {
	var sb strings.Builder
	tr := sampleTrace()
	if err := Write(&sb, tr); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	viaRead, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	sr, err := NewStreamReader(strings.NewReader(text))
	if err != nil {
		t.Fatalf("NewStreamReader: %v", err)
	}
	viaStream, err := Collect(sr)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(viaRead.Contacts) != len(viaStream.Contacts) {
		t.Fatalf("stream %d contacts, read %d", len(viaStream.Contacts), len(viaRead.Contacts))
	}
	for i := range viaRead.Contacts {
		if viaRead.Contacts[i] != viaStream.Contacts[i] {
			t.Fatalf("contact %d: stream %+v != read %+v", i, viaStream.Contacts[i], viaRead.Contacts[i])
		}
	}
}

func TestStreamReaderErrors(t *testing.T) {
	cases := []struct {
		name   string
		text   string
		header bool // error expected at construction
	}{
		{"contact-before-header", "1 0 1\nnodes 3\nduration 10\n", true},
		{"no-header", "# empty\n", true},
		{"bad-node-count", "nodes x\nduration 10\n", true},
		{"out-of-order", "nodes 3\nduration 10\n5 0 1\n2 1 2\n", false},
		{"bad-endpoint", "nodes 3\nduration 10\n1 0 7\n", false},
		{"self-contact", "nodes 3\nduration 10\n1 2 2\n", false},
		{"past-duration", "nodes 3\nduration 10\n11 0 1\n", false},
		{"garbage-line", "nodes 3\nduration 10\n1 0 1\nwhat even\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sr, err := NewStreamReader(strings.NewReader(tc.text))
			if tc.header {
				if err == nil {
					t.Fatal("header error not reported")
				}
				return
			}
			if err != nil {
				t.Fatalf("NewStreamReader: %v", err)
			}
			for {
				if _, ok := sr.Next(); !ok {
					break
				}
			}
			if sr.Err() == nil {
				t.Error("mid-stream error not reported by Err")
			}
		})
	}
}

func TestOpenStreamFile(t *testing.T) {
	path := t.TempDir() + "/trace.txt"
	tr := sampleTrace()
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStream(path)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	got, err := Collect(sr)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(got.Contacts) != len(tr.Contacts) {
		t.Fatalf("%d contacts, want %d", len(got.Contacts), len(tr.Contacts))
	}
	if err := sr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := OpenStream(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCollectPropagatesStreamError(t *testing.T) {
	sr, err := NewStreamReader(strings.NewReader("nodes 3\nduration 10\n5 0 1\n2 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(sr); !errors.Is(err, ErrInvalid) {
		t.Errorf("Collect error %v, want ErrInvalid", err)
	}
}

// TestSliceSourceReopen: a drained slice adapter reopens into a fresh
// view over the same trace.
func TestSliceSourceReopen(t *testing.T) {
	tr := sampleTrace()
	src := tr.Source()
	if _, err := Collect(src); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	re, err := src.Reopen()
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	got, err := Collect(re)
	if err != nil {
		t.Fatalf("Collect reopened: %v", err)
	}
	if len(got.Contacts) != len(tr.Contacts) {
		t.Fatalf("reopened source yields %d contacts, want %d", len(got.Contacts), len(tr.Contacts))
	}
}

// TestEmpiricalRatesFrom: the streaming estimator must be bit-identical
// to EmpiricalRates over the same contacts, and must reject contract
// violations instead of mis-indexing.
func TestEmpiricalRatesFrom(t *testing.T) {
	tr := sampleTrace()
	want := EmpiricalRates(tr)
	got, err := EmpiricalRatesFrom(tr.Source())
	if err != nil {
		t.Fatalf("EmpiricalRatesFrom: %v", err)
	}
	for i, w := range want.Rates() {
		if got.Rates()[i] != w {
			t.Fatalf("pair %d: rate %g != %g (streaming estimator drifted)", i, got.Rates()[i], w)
		}
	}

	bad := &Trace{Nodes: 4, Duration: 100, Contacts: []Contact{{T: 10, A: 0, B: 9}}}
	if _, err := EmpiricalRatesFrom(bad.Source()); !errors.Is(err, ErrInvalid) {
		t.Errorf("out-of-range contact: error %v, want ErrInvalid", err)
	}
	disordered := &Trace{Nodes: 4, Duration: 100, Contacts: []Contact{
		{T: 50, A: 0, B: 1}, {T: 10, A: 1, B: 2},
	}}
	if _, err := EmpiricalRatesFrom(disordered.Source()); !errors.Is(err, ErrInvalid) {
		t.Errorf("disordered stream: error %v, want ErrInvalid", err)
	}

	empty := &Trace{Nodes: 3, Duration: 0}
	rm, err := EmpiricalRatesFrom(empty.Source())
	if err != nil {
		t.Fatalf("zero-duration source: %v", err)
	}
	if rm.TotalRate() != 0 {
		t.Errorf("zero-duration source gives total rate %g, want 0", rm.TotalRate())
	}
}

// TestEmpiricalRatesFromPropagatesStreamError mirrors the Collect test:
// a mid-stream parse error must surface, not truncate silently.
func TestEmpiricalRatesFromPropagatesStreamError(t *testing.T) {
	sr, err := NewStreamReader(strings.NewReader("nodes 3\nduration 10\n5 0 1\n2 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EmpiricalRatesFrom(sr); !errors.Is(err, ErrInvalid) {
		t.Errorf("EmpiricalRatesFrom error %v, want ErrInvalid", err)
	}
}

// nextOnly hides a source's NextBatch, so FillBatch falls back to Next.
type nextOnly struct{ Source }

// ratesByNext is the reference accumulation: one Next call, one
// contract check and one 1/duration added per contact. It returns the
// first contract error, as EmpiricalRatesFrom must.
func ratesByNext(src Source) (*RateMatrix, error) {
	nodes, duration := src.Nodes(), src.Duration()
	rm := NewRateMatrix(nodes)
	prevT := 0.0
	for {
		c, ok := src.Next()
		if !ok {
			return rm, nil
		}
		if err := CheckStreamContact(c, prevT, nodes, duration); err != nil {
			return nil, err
		}
		prevT = c.T
		rm.rates[PairIndex(nodes, c.A, c.B)] += 1 / duration
	}
}

// longTrace has enough contacts to span several of EmpiricalRatesFrom's
// batches.
func longTrace(contacts int) *Trace {
	rng := rand.New(rand.NewPCG(5, 7))
	tr := &Trace{Nodes: 9, Duration: 3.7}
	t := 0.0
	for range contacts {
		t += rng.Float64() * tr.Duration / float64(contacts)
		a := rng.IntN(tr.Nodes)
		b := (a + 1 + rng.IntN(tr.Nodes-1)) % tr.Nodes
		tr.Contacts = append(tr.Contacts, Contact{T: t, A: a, B: b})
	}
	return tr
}

// TestEmpiricalRatesFromBatches: draining in batches must give the
// matrix of a contact-by-contact accumulation over Next, bit for bit,
// from a bulk source and from one without NextBatch, and a malformed
// contact in the middle of a batch must fail with the same error.
func TestEmpiricalRatesFromBatches(t *testing.T) {
	tr := longTrace(5000)
	want, err := ratesByNext(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]Source{"bulk": tr.Source(), "next-only": nextOnly{tr.Source()}} {
		got, err := EmpiricalRatesFrom(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, w := range want.Rates() {
			if got.Rates()[i] != w {
				t.Fatalf("%s: pair %d: rate %v != %v", name, i, got.Rates()[i], w)
			}
		}
	}

	for _, at := range []int{100, 1500, 4999} {
		for _, bad := range []Contact{
			{T: tr.Contacts[at].T, A: 0, B: tr.Nodes}, // endpoint out of range
			{T: tr.Contacts[at].T, A: 3, B: 3},        // self-contact
			{T: tr.Contacts[at].T / 2, A: 0, B: 1},    // out of order
			{T: 2 * tr.Duration, A: 0, B: 1},          // past the horizon
		} {
			broken := &Trace{Nodes: tr.Nodes, Duration: tr.Duration, Contacts: append([]Contact(nil), tr.Contacts...)}
			broken.Contacts[at] = bad
			_, wantErr := ratesByNext(broken.Source())
			if wantErr == nil {
				t.Fatalf("contact %d = %+v: reference accepted it", at, bad)
			}
			for name, src := range map[string]Source{"bulk": broken.Source(), "next-only": nextOnly{broken.Source()}} {
				_, err := EmpiricalRatesFrom(src)
				if err == nil || err.Error() != wantErr.Error() || !errors.Is(err, ErrInvalid) {
					t.Errorf("%s, contact %d = %+v: error %v, want %v", name, at, bad, err, wantErr)
				}
			}
		}
	}
}
