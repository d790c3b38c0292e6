package serve

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"impatience/internal/demand"
)

// renderObserve writes an observe body the way the load generator and
// the benchmark do: strconv.Itoa keys and shortest 'g' values for every
// positive entry. With rng non-nil it also puts random JSON whitespace
// between tokens and may list counts before window_sec.
func renderObserve(counts []float64, window float64, rng *rand.Rand) []byte {
	var b bytes.Buffer
	ws := func() {
		if rng == nil {
			return
		}
		for n := rng.IntN(3); n > 0; n-- {
			b.WriteByte(" \t\n\r"[rng.IntN(4)])
		}
	}
	writeWindow := func() {
		b.WriteString(`"window_sec"`)
		ws()
		b.WriteByte(':')
		ws()
		b.WriteString(strconv.FormatFloat(window, 'g', -1, 64))
	}
	writeCounts := func() {
		b.WriteString(`"counts"`)
		ws()
		b.WriteByte(':')
		ws()
		b.WriteByte('{')
		first := true
		for i, c := range counts {
			if c <= 0 {
				continue
			}
			ws()
			if !first {
				b.WriteByte(',')
				ws()
			}
			first = false
			b.WriteByte('"')
			b.WriteString(strconv.Itoa(i))
			b.WriteByte('"')
			ws()
			b.WriteByte(':')
			ws()
			b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
		}
		ws()
		b.WriteByte('}')
	}
	ws()
	b.WriteByte('{')
	ws()
	if rng != nil && rng.IntN(2) == 0 {
		writeCounts()
		ws()
		b.WriteByte(',')
		ws()
		writeWindow()
	} else {
		writeWindow()
		ws()
		b.WriteByte(',')
		ws()
		writeCounts()
	}
	ws()
	b.WriteByte('}')
	ws()
	return b.Bytes()
}

// paretoBody is a benchmark-sized window: 3000 Pareto-ranked items under
// a seeded permutation, 1000 requests/s over half a second.
func paretoBody(seed uint64) ([]byte, []float64) {
	const items, window = 3000, 0.5
	pop := demand.Pareto(items, 1, 1000)
	perm := rand.New(rand.NewPCG(seed, seed^0x5eed)).Perm(items)
	counts := make([]float64, items)
	for i, r := range pop.Rates {
		counts[perm[i]] = r * window
	}
	return renderObserve(counts, window, nil), counts
}

// sameBits reports whether two decodes agree bit for bit.
func sameBits(w1 float64, c1 []float64, w2 float64, c2 []float64) bool {
	if math.Float64bits(w1) != math.Float64bits(w2) || len(c1) != len(c2) {
		return false
	}
	for i := range c1 {
		if math.Float64bits(c1[i]) != math.Float64bits(c2[i]) {
			return false
		}
	}
	return true
}

// TestParseObserveRejectsNonCanonical: every form the map decoder took
// but the wire grammar excludes is rejected with an error naming the
// cause and the byte offset where it starts.
func TestParseObserveRejectsNonCanonical(t *testing.T) {
	cases := []struct {
		name, body, at, cause string
	}{
		{"case-folded-window", `{"Window_sec":1,"counts":{"0":1}}`, `"Window_sec"`, "lower case"},
		{"case-folded-counts", `{"window_sec":1,"COUNTS":{"0":1}}`, `"COUNTS"`, "lower case"},
		{"unknown-field", `{"window_sec":1,"extra":[1,2],"counts":{}}`, `"extra"`, "unknown field"},
		{"escaped-field", `{"window\u005fsec":1}`, `\u`, "escaped field name"},
		{"escaped-key", `{"window_sec":1,"counts":{"\u0031":1}}`, `\u`, "escaped item key"},
		{"escaped-key-tail", `{"window_sec":1,"counts":{"0\u0037":1}}`, `\u`, "escaped item key"},
		{"plus-key", `{"window_sec":1,"counts":{"+3":1}}`, `"+3"`, "signed item key"},
		{"minus-zero-key", `{"window_sec":1,"counts":{"-0":1}}`, `"-0"`, "signed item key"},
		{"zero-padded-key", `{"window_sec":1,"counts":{"007":1}}`, `"007"`, "zero-padded"},
		{"null-count", `{"window_sec":1,"counts":{"0":null}}`, `null`, "null value"},
		{"null-counts", `{"window_sec":1,"counts":null}`, `null`, "null value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := parseObserveReference([]byte(tc.body), 8); err != nil {
				t.Fatalf("reference decoder rejects it too (%v); not a newly rejected form", err)
			}
			_, counts, err := ParseObserve([]byte(tc.body), 8)
			if err == nil {
				t.Fatal("accepted")
			}
			if counts != nil {
				t.Fatalf("rejected body returned counts %v", counts)
			}
			at := "at byte " + strconv.Itoa(strings.Index(tc.body, tc.at)) + ":"
			if msg := err.Error(); !strings.Contains(msg, tc.cause) || !strings.Contains(msg, at) {
				t.Fatalf("error %q, want the cause %q and %q", msg, tc.cause, at)
			}
		})
	}
}

// TestParseObserveKeepsReferenceSemantics pins the behaviours the
// one-pass decoder shares with the map decoder: last-wins keys and
// fields, a missing counts as an empty window, -0, underflow to zero,
// and rejection of overflow and trailing data.
func TestParseObserveKeepsReferenceSemantics(t *testing.T) {
	accept := []string{
		`{"window_sec":1,"counts":{"0":1,"0":2}}`,
		`{"window_sec":1,"counts":{"0":-1,"0":2}}`,
		`{"window_sec":2,"counts":{"0":1},"window_sec":0.5,"counts":{"1":3}}`,
		`{"window_sec":1}`,
		` {"counts":{}, "window_sec":1e-05} ` + "\n",
		`{"window_sec":1,"counts":{"0":-0,"1":1e-400,"2":4.9e-324,"3":1.7976931348623157e308}}`,
	}
	for _, body := range accept {
		w, c, err := ParseObserve([]byte(body), 4)
		if err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		rw, rc, err := parseObserveReference([]byte(body), 4)
		if err != nil {
			t.Errorf("%s: reference rejects: %v", body, err)
			continue
		}
		if !sameBits(w, c, rw, rc) {
			t.Errorf("%s: decoded (%g, %v), reference (%g, %v)", body, w, c, rw, rc)
		}
	}
	reject := []string{
		`{"window_sec":1,"counts":{"0":1e400}}`,
		`{"window_sec":1e400}`,
		`{"window_sec":1,"counts":{}}x`,
		`{"window_sec":1,"counts":{}}{}`,
		`{"window_sec":1,"counts":{"0":1,}}`,
		`{"window_sec":1,"counts":{"0":01}}`,
		`{"window_sec":1,"counts":{"0":1.}}`,
		`{"window_sec":1,"counts":{"0":.5}}`,
		`{"window_sec":1,"counts":{"0":1e}}`,
		`{"window_sec":1,"counts":{"0":-}}`,
		`{"window_sec":1,"counts":{"0":+1}}`,
		`{"window_sec":1,"counts":{"0":"1"}}`,
		`{"window_sec":1,"counts":{"4":1}}`,
		`{"window_sec":1,"counts":{"99999999999999999999999":1}}`,
		`{"window_sec":0}`,
		`{"window_sec":-0}`,
		`{}`,
		``,
		`[]`,
	}
	for _, body := range reject {
		if _, _, err := ParseObserve([]byte(body), 4); err == nil {
			t.Errorf("%s: accepted", body)
		}
	}
}

// TestParseObserveParetoMatchesReference decodes a canonical
// benchmark-sized window bit-equal to the map decoder and to the values
// it was rendered from.
func TestParseObserveParetoMatchesReference(t *testing.T) {
	body, want := paretoBody(3)
	w, c, err := ParseObserve(body, len(want))
	if err != nil {
		t.Fatal(err)
	}
	rw, rc, err := parseObserveReference(body, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(w, c, rw, rc) {
		t.Fatal("one-pass decode differs from the reference")
	}
	if !sameBits(w, c, 0.5, want) {
		t.Fatal("one-pass decode differs from the rendered counts")
	}
}

// TestParseObserveAllocs pins the decode to one allocation per accepted
// window: the dense counts slice.
func TestParseObserveAllocs(t *testing.T) {
	body, want := paretoBody(3)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ParseObserve(body, len(want)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("%.1f allocations per 3000-item window, want ≤ 1", allocs)
	}
}

func BenchmarkParseObserve(b *testing.B) {
	body, want := paretoBody(3)
	for _, dec := range []struct {
		name  string
		parse func([]byte, int) (float64, []float64, error)
	}{{"one-pass", ParseObserve}, {"reference", parseObserveReference}} {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := dec.parse(body, len(want)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzParseObserveMatchesReference checks the one-pass decoder against
// the map decoder. Whenever ParseObserve accepts data, the reference
// must accept it with the same window and bit-equal counts. A window
// rendered from seed as the load generator renders it, with random
// whitespace, must always be accepted and decode to exactly the values
// rendered.
func FuzzParseObserveMatchesReference(f *testing.F) {
	for _, body := range []string{
		`{"window_sec":1,"counts":{"0":10,"3":2}}`,
		`{"window_sec":0.5,"counts":{"0":1e-05,"1":166.66666666666666}}`,
		` { "counts" : { "2" : 1 } ,` + "\n\t" + `"window_sec" : 1 } `,
		`{"Window_sec":1,"counts":{"0":1}}`,
		`{"window_sec":1,"COUNTS":{"0":1}}`,
		`{"window_sec":1,"extra":true,"counts":{}}`,
		`{"window_sec":1}`,
		`{"window\u005fsec":1}`,
		`{"window_sec":1,"counts":{"\u0031":1}}`,
		`{"window_sec":1,"counts":{"+3":1}}`,
		`{"window_sec":1,"counts":{"-0":1}}`,
		`{"window_sec":1,"counts":{"007":1}}`,
		`{"window_sec":1,"counts":{"0":null}}`,
		`{"window_sec":1,"counts":null}`,
		`{"window_sec":null,"counts":{}}`,
		`{"window_sec":1,"counts":{}}garbage`,
		`{"window_sec":1,"counts":{"0":1e400}}`,
		`{"window_sec":1,"counts":{"0":-0}}`,
		`{"window_sec":1,"counts":{"0":1,"0":2,"1":-1,"1":3}}`,
		`{"window_sec":1,"counts":{"0":1},"counts":{"1":2}}`,
	} {
		f.Add([]byte(body), 8, uint64(len(body)))
	}
	f.Fuzz(func(t *testing.T, data []byte, items int, seed uint64) {
		if items > 0 && items <= 1<<12 {
			w, c, err := ParseObserve(data, items)
			if err == nil {
				rw, rc, rerr := parseObserveReference(data, items)
				if rerr != nil {
					t.Fatalf("accepted a body the reference rejects: %v", rerr)
				}
				if !sameBits(w, c, rw, rc) {
					t.Fatalf("decoded (%g, %v), reference (%g, %v)", w, c, rw, rc)
				}
			}
		}

		rng := rand.New(rand.NewPCG(seed, 0x0b5e))
		counts := make([]float64, 1+rng.IntN(256))
		for i := range counts {
			switch rng.IntN(6) {
			case 0: // absent
			case 1:
				counts[i] = float64(1 + rng.IntN(1000))
			case 2:
				counts[i] = rng.Float64() * math.Pow(10, float64(rng.IntN(616)-308))
			case 3:
				counts[i] = rng.Float64() * 1e-5
			default:
				counts[i] = 1000 / float64(1+rng.IntN(len(counts))) * 0.5
			}
		}
		window := []float64{0.5, 1, 1e-05, 60, rng.Float64() + 0.01}[rng.IntN(5)]
		body := renderObserve(counts, window, rng)
		w, c, err := ParseObserve(body, len(counts))
		if err != nil {
			t.Fatalf("rendered body %s rejected: %v", body, err)
		}
		if !sameBits(w, c, window, counts) {
			t.Fatalf("rendered body %s decoded to (%g, %v)", body, w, c)
		}
		rw, rc, err := parseObserveReference(body, len(counts))
		if err != nil || !sameBits(w, c, rw, rc) {
			t.Fatalf("rendered body %s: reference (%g, %v, %v)", body, rw, rc, err)
		}
	})
}
