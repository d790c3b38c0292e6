package serve

import (
	"bytes"
	"fmt"
	"strconv"
)

// ParseObserve decodes and fully validates an observation window against
// a catalog of items, returning the window length and a dense count
// vector. It never mutates shared state, so handlers can reject bad input
// before touching the estimator.
//
// The body is decoded in one pass straight into the dense vector. The
// accepted grammar is a strict subset of JSON:
//
//	body   = ws "{" ws [ field *( ws "," ws field ) ] ws "}" ws
//	field  = `"window_sec"` ws ":" ws number
//	       | `"counts"` ws ":" ws "{" ws [ entry *( ws "," ws entry ) ] ws "}"
//	entry  = `"` index `"` ws ":" ws number
//	index  = "0" | [1-9] *[0-9]
//
// where number is the RFC 8259 number grammar and ws is JSON whitespace.
// Field names must be spelled exactly; unknown fields, escaped, signed or
// zero-padded item keys and null values are errors naming the byte
// offset. A missing counts is an empty window. Repeated fields and item
// keys are last-wins, as with encoding/json. Numbers are parsed by
// strconv.ParseFloat, as encoding/json parses them, so a value that
// overflows float64 is rejected and one that underflows reads as zero.
// Non-positive windows, item indices outside [0, items) and negative
// counts are errors too.
func ParseObserve(data []byte, items int) (float64, []float64, error) {
	if items < 0 {
		return 0, nil, fmt.Errorf("serve: catalog size %d, want ≥ 0", items)
	}
	counts := make([]float64, items)
	d := observeDecoder{data: data}
	window, err := d.body(counts)
	if err != nil {
		return 0, nil, err
	}
	// ParseFloat returns only finite values, so these checks suffice.
	if !(window > 0) {
		return 0, nil, fmt.Errorf("serve: window_sec=%g, want finite > 0", window)
	}
	for i, c := range counts {
		if c < 0 {
			return 0, nil, fmt.Errorf("serve: item %d count %g, want finite ≥ 0", i, c)
		}
	}
	return window, counts, nil
}

// observeDecoder walks an observe body once, left to right.
type observeDecoder struct {
	data []byte
	pos  int
}

// errAt reports a grammar error at byte offset at.
func errAt(at int, format string, args ...any) error {
	return fmt.Errorf("serve: malformed observe body at byte %d: %s", at, fmt.Sprintf(format, args...))
}

func (d *observeDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// describe names the byte at the cursor for an error message.
func (d *observeDecoder) describe() string {
	if d.pos >= len(d.data) {
		return "end of body"
	}
	return fmt.Sprintf("%q", d.data[d.pos:d.pos+1])
}

// expect consumes c after optional whitespace.
func (d *observeDecoder) expect(c byte) error {
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		return errAt(d.pos, "want %q, found %s", c, d.describe())
	}
	d.pos++
	return nil
}

// more reports, after an object member, whether another follows: it
// consumes ',' (true) or '}' (false).
func (d *observeDecoder) more() (bool, error) {
	d.ws()
	if d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ',':
			d.pos++
			return true, nil
		case '}':
			d.pos++
			return false, nil
		}
	}
	return false, errAt(d.pos, "want ',' or '}', found %s", d.describe())
}

// empty consumes the '}' of an object with no members, if it is next.
func (d *observeDecoder) empty() bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		return true
	}
	return false
}

var (
	fieldWindow = []byte("window_sec")
	fieldCounts = []byte("counts")
)

// body decodes the top-level object, writing counts as it goes, and
// returns the last window_sec (0 when absent).
func (d *observeDecoder) body(counts []float64) (float64, error) {
	var window float64
	if err := d.expect('{'); err != nil {
		return 0, err
	}
	for more := !d.empty(); more; {
		d.ws()
		at := d.pos
		name, err := d.fieldName()
		if err != nil {
			return 0, err
		}
		if err := d.expect(':'); err != nil {
			return 0, err
		}
		switch {
		case bytes.Equal(name, fieldWindow):
			if window, err = d.number(); err != nil {
				return 0, err
			}
		case bytes.Equal(name, fieldCounts):
			if err := d.counts(counts); err != nil {
				return 0, err
			}
		case bytes.EqualFold(name, fieldWindow), bytes.EqualFold(name, fieldCounts):
			return 0, errAt(at, "field %q must be spelled in lower case", name)
		default:
			return 0, errAt(at, "unknown field %q (want \"window_sec\" or \"counts\")", name)
		}
		if more, err = d.more(); err != nil {
			return 0, err
		}
	}
	d.ws()
	if d.pos != len(d.data) {
		return 0, errAt(d.pos, "trailing data after the closing '}'")
	}
	return window, nil
}

// fieldName reads a quoted top-level field name; names are plain ASCII,
// so an escape is an error rather than something to decode.
func (d *observeDecoder) fieldName() ([]byte, error) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, errAt(d.pos, "want a quoted field name, found %s", d.describe())
	}
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], nil
		case c == '\\':
			return nil, errAt(i, "escaped field name")
		case c < 0x20:
			return nil, errAt(i, "control character in field name")
		}
	}
	return nil, errAt(len(d.data), "unterminated field name")
}

// counts decodes the counts object into the dense vector.
func (d *observeDecoder) counts(counts []float64) error {
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != '{' {
		return d.notA("an object")
	}
	d.pos++
	for more := !d.empty(); more; {
		d.ws()
		i, err := d.index(len(counts))
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if counts[i], err = d.number(); err != nil {
			return err
		}
		if more, err = d.more(); err != nil {
			return err
		}
	}
	return nil
}

// index reads a quoted item key: a canonical decimal index in [0, items).
func (d *observeDecoder) index(items int) (int, error) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return 0, errAt(d.pos, "want a quoted item index, found %s", d.describe())
	}
	at := d.pos
	p := d.pos + 1
	i, digits := 0, 0
	for ; p < len(d.data) && '0' <= d.data[p] && d.data[p] <= '9'; p++ {
		if i <= items { // stop growing once out of range: no overflow
			i = i*10 + int(d.data[p]-'0')
		}
		digits++
	}
	if p >= len(d.data) || d.data[p] != '"' || digits == 0 {
		return 0, d.badIndex(at, p)
	}
	if digits > 1 && d.data[at+1] == '0' {
		return 0, errAt(at, "item key %s is zero-padded", d.data[at:p+1])
	}
	if i >= items {
		return 0, errAt(at, "item %s outside catalog [0, %d)", d.data[at+1:p], items)
	}
	d.pos = p + 1
	return i, nil
}

// badIndex names why the key starting at at is not a canonical index;
// p is where its leading digits stopped.
func (d *observeDecoder) badIndex(at, p int) error {
	if p < len(d.data) {
		switch c := d.data[p]; {
		case c == '\\':
			return errAt(p, "escaped item key")
		case p == at+1 && (c == '-' || c == '+'):
			return errAt(at, "signed item key")
		}
	}
	end := bytes.IndexByte(d.data[at+1:], '"')
	if end < 0 {
		return errAt(at, "unterminated item key")
	}
	return errAt(at, "item key %s is not a decimal index", d.data[at:at+end+2])
}

// notA reports that the value at the cursor is not the kind wanted,
// naming null apart from other mismatches.
func (d *observeDecoder) notA(kind string) error {
	if bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		return errAt(d.pos, "null value, want %s", kind)
	}
	return errAt(d.pos, "want %s, found %s", kind, d.describe())
}

// number reads one JSON number: it checks the RFC 8259 grammar, then
// parses the token with strconv.ParseFloat as encoding/json does.
func (d *observeDecoder) number() (float64, error) {
	d.ws()
	at, p := d.pos, d.pos
	if p < len(d.data) && d.data[p] == '-' {
		p++
	}
	switch {
	case p < len(d.data) && d.data[p] == '0':
		p++
	case p < len(d.data) && '1' <= d.data[p] && d.data[p] <= '9':
		p = d.digits(p)
	case p > at:
		return 0, errAt(p, "want a digit after '-'")
	default:
		return 0, d.notA("a number")
	}
	if p < len(d.data) && d.data[p] == '.' {
		q := d.digits(p + 1)
		if q == p+1 {
			return 0, errAt(q, "want a digit after '.'")
		}
		p = q
	}
	if p < len(d.data) && (d.data[p] == 'e' || d.data[p] == 'E') {
		p++
		if p < len(d.data) && (d.data[p] == '+' || d.data[p] == '-') {
			p++
		}
		q := d.digits(p)
		if q == p {
			return 0, errAt(q, "want a digit in the exponent")
		}
		p = q
	}
	v, err := strconv.ParseFloat(string(d.data[at:p]), 64)
	if err != nil {
		return 0, errAt(at, "number %s out of float64 range", d.data[at:p])
	}
	d.pos = p
	return v, nil
}

// digits returns the end of the run of decimal digits starting at p.
func (d *observeDecoder) digits(p int) int {
	for p < len(d.data) && '0' <= d.data[p] && d.data[p] <= '9' {
		p++
	}
	return p
}
