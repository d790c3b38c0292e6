package sim

import "math/bits"

// bitRows keeps one bit per (node, item) in one flat word array: node
// n's row is the stride bits starting at bit n·stride, and bit i of the
// row stands for item i. The stride is the catalog size rounded up to a
// power of two, so a row never straddles a word boundary: below 64 items
// several nodes' rows share a word, from 64 items on a row is stride/64
// whole words. The kernel keeps two sets of rows, the items each node
// caches and the items it has open requests for, so whether a node
// wants an item its peer holds is one bit test.
type bitRows struct {
	w     []uint64
	shift uint // log2 of the stride
}

// newBitRows returns all-zero rows for nodes nodes over an items-wide
// catalog (items ≥ 1).
func newBitRows(nodes, items int) bitRows {
	shift := uint(bits.Len(uint(items - 1)))
	return bitRows{w: make([]uint64, (nodes<<shift+63)>>6), shift: shift}
}

// has reports whether bit (n, i) is set.
func (b *bitRows) has(n, i int) bool {
	k := n<<b.shift + i
	return b.w[k>>6]>>(k&63)&1 != 0
}

// set sets bit (n, i).
func (b *bitRows) set(n, i int) {
	k := n<<b.shift + i
	b.w[k>>6] |= 1 << (k & 63)
}

// clear clears bit (n, i).
func (b *bitRows) clear(n, i int) {
	k := n<<b.shift + i
	b.w[k>>6] &^= 1 << (k & 63)
}

// zero clears node n's row.
func (b *bitRows) zero(n int) {
	bit, stride := n<<b.shift, 1<<b.shift
	if stride < 64 {
		b.w[bit>>6] &^= (1<<stride - 1) << (bit & 63)
	} else {
		clear(b.w[bit>>6 : (bit+stride)>>6])
	}
}
