package prefetch

import "repro/internal/isa"

// blockIndex maps blocks to non-negative ints through an open-addressed
// table (Fibonacci hash, linear probing) that doubles to keep its load
// at most one half. It only inserts and updates — TIFS never forgets a
// block — so it needs no deletion, and no operation hashes through a Go
// map.
type blockIndex struct {
	slots []blockSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

// blockSlot is one bucket: the block and 1 + its value (0 marks an
// empty bucket).
type blockSlot struct {
	b isa.Block
	v int
}

// find returns the bucket holding b, or the empty bucket that ends its
// probe sequence.
func (x *blockIndex) find(b isa.Block) int {
	mask := len(x.slots) - 1
	i := int((uint64(b) * 0x9e3779b97f4a7c15) >> x.shift)
	for x.slots[i].v != 0 && x.slots[i].b != b {
		i = (i + 1) & mask
	}
	return i
}

// get returns the value mapped to b.
func (x *blockIndex) get(b isa.Block) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	s := x.slots[x.find(b)]
	if s.v == 0 {
		return 0, false
	}
	return s.v - 1, true
}

// put maps b to v (v >= 0).
func (x *blockIndex) put(b isa.Block, v int) {
	if 2*(x.n+1) > len(x.slots) {
		x.resize(max(16, 2*len(x.slots)))
	}
	i := x.find(b)
	if x.slots[i].v == 0 {
		x.n++
	}
	x.slots[i] = blockSlot{b: b, v: v + 1}
}

// resize rebuilds the table with n buckets (a power of two).
func (x *blockIndex) resize(n int) {
	old := x.slots
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	x.slots = make([]blockSlot, n)
	x.shift = 64 - bits
	for _, s := range old {
		if s.v != 0 {
			x.slots[x.find(s.b)] = s
		}
	}
}
