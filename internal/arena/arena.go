// Package arena holds per-node sorted item lists in one pooled store.
// The event simulator keeps each node's open requests in it and QCR keeps
// each node's pending mandate piles in it: both are "for every node, the
// items with a non-empty queue, in ascending item order, each with a FIFO
// queue of values".
//
// A per-(node, item) slice of slices costs a 24-byte header for every
// pair whether or not it is ever used, which at a million nodes is most
// of a run's memory. Lists instead keeps one 4-byte head per node. A node
// with live queues owns a block: one contiguous array of its entries
// {item, values}, sorted by item, so a walk over a node's queues reads
// memory in order instead of chasing links. A queue that drains returns
// its value storage to a free pool with its capacity kept, and a node
// whose last queue drains returns its block the same way; later queues
// and nodes reuse them instead of allocating. A queue popped at the front
// keeps its popped prefix as an offset and moves its survivors back only
// once the prefix is at least as long as they are, so a pop costs O(1)
// amortized however long the queue grows.
//
// Each block also carries a clock: a counter that Tick advances and that
// restarts at 0 whenever a node takes the block. It counts events in the
// life of a node's current queues (the simulator's meetings) without a
// per-node array. At a million nodes an 8-byte counter per node in every
// store raised the community-1m benchmark's peak RSS from 158.5 to
// 211 MB, while the per-block clock, which costs only the nodes holding
// entries, reads 162 MB. A node without a block reads clock 0 and ignores
// ticks, which is exact for the simulator: its query counters belong to
// open requests, and a node without entries has none.
//
// The orders results depend on are fixed here: a node's entries are
// visited in ascending item order, values within an entry stay in append
// order, and no two live entries share a backing array.
package arena

// Lists is the per-node store. The zero value is unusable; build one with
// New.
type Lists[T any] struct {
	head   []int32      // per node: its block in blocks, 0 when it has no entries
	blocks [][]Entry[T] // blocks[0] stays empty, so head 0 means "none"
	clock  []int64      // per block: Ticks since a node took it; clock[0] stays 0
	free   []int32      // blocks with no entries, capacity kept
	spare  [][]T        // value storage of drained entries, capacity kept
}

// initCap is the capacity fresh storage starts with, both a new queue's
// values and a new block's entries, so the first few appends do not
// regrow it 1→2→4.
const initCap = 4

// Entry is one (node, item) queue.
type Entry[T any] struct {
	item int32
	off  int32 // values popped from the front of buf, not yet reclaimed
	buf  []T   // the queue is buf[off:]
}

// Item returns the queue's item.
func (e *Entry[T]) Item() int { return int(e.item) }

// Vals returns the queued values. Elements may be edited in place.
func (e *Entry[T]) Vals() []T { return e.buf[e.off:] }

// Len returns the number of queued values.
func (e *Entry[T]) Len() int { return len(e.buf) - int(e.off) }

// Clear empties the queue; Compact then removes it.
func (e *Entry[T]) Clear() { e.off, e.buf = 0, e.buf[:0] }

// New returns an empty store for the given number of nodes.
func New[T any](nodes int) Lists[T] {
	return Lists[T]{
		head:   make([]int32, nodes),
		blocks: make([][]Entry[T], 1),
		clock:  make([]int64, 1),
	}
}

// Empty reports whether node has no entries.
func (l *Lists[T]) Empty(node int) bool { return l.head[node] == 0 }

// Entries returns node's queues in ascending item order, for a walk that
// reads them or edits their values in place. A walk that clears queues
// must call Compact afterwards.
func (l *Lists[T]) Entries(node int) []Entry[T] { return l.blocks[l.head[node]] }

// Tick advances node's clock by one. It is a no-op for a node without
// entries.
func (l *Lists[T]) Tick(node int) {
	if id := l.head[node]; id != 0 {
		l.clock[id]++
	}
}

// Clock returns the number of Ticks of node since it took its current
// block, 0 for a node without entries. The clock survives Push and
// Compact while the node keeps an entry, and restarts at 0 once its last
// entry drains.
func (l *Lists[T]) Clock(node int) int64 { return l.clock[l.head[node]] }

// Compact removes node's empty queues, returning their storage to the
// pool.
func (l *Lists[T]) Compact(node int) {
	id := l.head[node]
	if id == 0 {
		return
	}
	blk := l.blocks[id]
	w := 0
	for i := range blk {
		if blk[i].Len() == 0 {
			l.release(blk[i].buf)
			continue
		}
		if w != i {
			blk[w] = blk[i]
		}
		w++
	}
	l.blocks[id] = blk[:w]
	if w == 0 {
		l.head[node] = 0
		l.free = append(l.free, id)
	}
}

// Find returns the values queued for (node, item), nil when none.
func (l *Lists[T]) Find(node, item int) []T {
	blk := l.blocks[l.head[node]]
	if i := Search(blk, item); i < len(blk) && int(blk[i].item) == item {
		return blk[i].Vals()
	}
	return nil
}

// Push appends v to the queue for (node, item), creating the queue in
// its sorted position when node has none for item.
func (l *Lists[T]) Push(node, item int, v T) {
	c := l.At(node, item)
	e := &c.blk[c.r]
	e.buf = append(e.buf, v)
}

// At returns a cursor on the queue for (node, item), creating the queue
// in its sorted position when node has none for item. An empty queue it
// creates stays until Compact.
func (l *Lists[T]) At(node, item int) Cursor[T] {
	id := l.head[node]
	blk := l.blocks[id]
	c := Cursor[T]{l: l, node: node, id: id, blk: blk, r: Search(blk, item)}
	c.Seek(item)
	return c
}

// Clear drops every queue of node and returns how many values they held.
func (l *Lists[T]) Clear(node int) int {
	n := 0
	ents := l.Entries(node)
	for i := range ents {
		n += ents[i].Len()
		ents[i].Clear()
	}
	l.Compact(node)
	return n
}

// Total returns the number of values across all nodes.
func (l *Lists[T]) Total() int {
	n := 0
	for _, blk := range l.blocks {
		for i := range blk {
			n += blk[i].Len()
		}
	}
	return n
}

// TotalItem returns the number of values item holds across all nodes.
func (l *Lists[T]) TotalItem(item int) int {
	n := 0
	for _, blk := range l.blocks {
		if i := Search(blk, item); i < len(blk) && int(blk[i].item) == item {
			n += blk[i].Len()
		}
	}
	return n
}

// Search returns the position of the first entry of blk whose item is
// not below item: len(blk) when there is none. blk is one node's
// Entries.
func Search[T any](blk []Entry[T], item int) int {
	lo, hi := 0, len(blk)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(blk[mid].item) < item {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// storage returns empty value storage: a drained queue's, or fresh.
func (l *Lists[T]) storage() []T {
	if n := len(l.spare); n > 0 {
		s := l.spare[n-1]
		l.spare = l.spare[:n-1]
		return s
	}
	return make([]T, 0, initCap)
}

// release returns a drained queue's storage to the pool.
func (l *Lists[T]) release(vals []T) { l.spare = append(l.spare, vals[:0]) }

// Cursor walks one node's entries in ascending item order and can insert
// new ones at its position, so a caller merges two nodes' lists with two
// cursors. Queues it empties stay in place until Compact.
type Cursor[T any] struct {
	l    *Lists[T]
	node int
	id   int32      // the node's block, 0 while it has none
	blk  []Entry[T] // the block's entries
	r    int        // position of the current entry
}

// Walk returns a cursor on node's first entry.
func (l *Lists[T]) Walk(node int) Cursor[T] {
	id := l.head[node]
	return Cursor[T]{l: l, node: node, id: id, blk: l.blocks[id]}
}

// Item returns the current entry's item; ok is false past the end.
func (c *Cursor[T]) Item() (item int, ok bool) {
	if c.r == len(c.blk) {
		return 0, false
	}
	return int(c.blk[c.r].item), true
}

// Vals returns the current entry's values. Elements may be edited in
// place; a changed length must be stored back with Set.
func (c *Cursor[T]) Vals() []T { return c.blk[c.r].Vals() }

// Set stores vals as the current entry's values. vals must be derived
// from the entry's own values: a sub-slice (values popped from the
// front) or the result of appending to them. A sub-slice stays where it
// is, its popped prefix kept as an offset; the survivors move back to
// the front of the array only once that prefix is at least as long as
// they are, so each value is moved O(1) times amortized. When an append
// outgrew the array, whichever array is larger is kept, so an entry's
// retained capacity never shrinks and a queue popped at the front and
// appended at the back settles into allocation-free reuse.
func (c *Cursor[T]) Set(vals []T) {
	e := &c.blk[c.r]
	if n := cap(vals); n > 0 && cap(e.buf) >= n &&
		&vals[:n][n-1] == &e.buf[:cap(e.buf)][cap(e.buf)-1] {
		// vals lies in e.buf: keep it in place.
		off := cap(e.buf) - n
		e.buf = e.buf[:off+len(vals)]
		e.off = int32(off)
		if off >= len(vals) {
			e.off, e.buf = 0, e.buf[:copy(e.buf, vals)]
		}
		return
	}
	e.off = 0
	if cap(vals) > cap(e.buf) {
		e.buf = vals
		return
	}
	e.buf = e.buf[:copy(e.buf[:len(vals)], vals)]
}

// Next moves to the following entry.
func (c *Cursor[T]) Next() { c.r++ }

// Seek moves forward to item's entry, inserting an empty one at that
// position when the node has none. item must not be below the current
// entry's item.
func (c *Cursor[T]) Seek(item int) {
	for c.r < len(c.blk) && int(c.blk[c.r].item) < item {
		c.r++
	}
	if c.r < len(c.blk) && int(c.blk[c.r].item) == item {
		return
	}
	l := c.l
	if c.id == 0 {
		if n := len(l.free); n > 0 {
			c.id = l.free[n-1]
			l.free = l.free[:n-1]
			l.clock[c.id] = 0
		} else {
			l.blocks = append(l.blocks, make([]Entry[T], 0, initCap))
			l.clock = append(l.clock, 0)
			c.id = int32(len(l.blocks) - 1)
		}
		l.head[c.node] = c.id
		c.blk = l.blocks[c.id]
	}
	c.blk = append(c.blk, Entry[T]{})
	copy(c.blk[c.r+1:], c.blk[c.r:])
	c.blk[c.r] = Entry[T]{item: int32(item), buf: l.storage()}
	l.blocks[c.id] = c.blk
}
