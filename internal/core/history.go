package core

import "repro/internal/isa"

// HistoryBuffer is the circular FIFO of spatial region records
// (Section 4.2). Positions are absolute (monotonically increasing), so a
// stale index entry whose record has been overwritten is detectable.
//
// The buffer grows on demand: it appends until it holds capacity
// records and only then starts to wrap, so an "unlimited" history costs
// memory in proportion to what is recorded, not to its capacity. Record
// placement is pos % capacity either way, so results are the same as a
// buffer allocated whole up front.
type HistoryBuffer struct {
	buf  []Region
	cap  int
	tail uint64 // absolute position of the next append
}

// NewHistoryBuffer builds a buffer holding capacity regions. A capacity of
// 0 is normalized to 1.
func NewHistoryBuffer(capacity int) *HistoryBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &HistoryBuffer{cap: capacity}
}

// Cap returns the buffer capacity in regions.
func (h *HistoryBuffer) Cap() int { return h.cap }

// Tail returns the absolute position of the next append.
func (h *HistoryBuffer) Tail() uint64 { return h.tail }

// Append stores a region and returns its absolute position.
func (h *HistoryBuffer) Append(r Region) uint64 {
	if len(h.buf) < h.cap {
		// Not yet wrapped: r's position, tail, is len(h.buf).
		h.buf = append(grow(h.buf, h.cap), r)
	} else {
		h.buf[h.tail%uint64(len(h.buf))] = r
	}
	h.tail++
	return h.tail - 1
}

// At returns the region at absolute position pos; ok is false when the
// position has been overwritten (older than capacity) or not yet written.
// Until the buffer wraps, len(h.buf) == tail, so pos % len(h.buf) is the
// position's slot both before and after.
func (h *HistoryBuffer) At(pos uint64) (Region, bool) {
	if pos >= h.tail || h.tail-pos > uint64(h.cap) {
		return Region{}, false
	}
	return h.buf[pos%uint64(len(h.buf))], true
}

// grow makes room for one more element in s, doubling its capacity but
// never past limit, so a table that stops short of its limit never
// holds more than twice what it uses and a full one holds exactly limit.
func grow[T any](s []T, limit int) []T {
	if len(s) < cap(s) {
		return s
	}
	n := 2 * cap(s)
	if n < 16 {
		n = 16
	}
	if n > limit {
		n = limit
	}
	out := make([]T, len(s), n)
	copy(out, s)
	return out
}

// indexEntry is one index-table mapping.
type indexEntry struct {
	trigger isa.Block
	pos     uint64
	prev    int
	next    int
}

// indexSlot is one bucket of the index's open-addressed lookup: the
// trigger and 1 + its entry number (0 marks an empty bucket).
type indexSlot struct {
	trigger isa.Block
	entry   int32
}

// IndexTable maps a trigger block to the history position of its most
// recent record (Section 4.2). It is a bounded cache-like structure with
// LRU replacement: an entry pool threaded by an intrusive doubly-linked
// LRU list, found through an open-addressed table (linear probing,
// backward-shift delete), so no operation hashes through a Go map.
//
// Both grow on demand. Entries are numbered in insertion order and
// appended until the pool holds capacity of them; only then does the
// LRU entry get recycled. The lookup table doubles to keep its load at
// most one half, up to the first power of two of at least twice the
// capacity. Entry numbering and LRU order are those of a table
// allocated whole up front, so results are the same; memory follows
// what is recorded, and a full table stops allocating.
type IndexTable struct {
	entries []indexEntry
	cap     int
	slots   []indexSlot
	shift   uint // 64 - log2(len(slots))
	head    int  // MRU
	tailIdx int  // LRU
}

// minIndexSlots is the lookup table's starting size.
const minIndexSlots = 16

// NewIndexTable builds an index with the given entry capacity (minimum 1).
func NewIndexTable(capacity int) *IndexTable {
	if capacity < 1 {
		capacity = 1
	}
	n := 2
	for n < minIndexSlots && n < 2*capacity {
		n *= 2
	}
	t := &IndexTable{cap: capacity, head: -1, tailIdx: -1}
	t.resize(n)
	return t
}

// resize rebuilds the lookup table with n buckets (a power of two) and
// re-inserts every live entry.
func (t *IndexTable) resize(n int) {
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	t.slots = make([]indexSlot, n)
	t.shift = 64 - bits
	for i := range t.entries {
		trigger := t.entries[i].trigger
		t.slots[t.find(trigger)] = indexSlot{trigger: trigger, entry: int32(i + 1)}
	}
}

// home returns the bucket trigger hashes to (Fibonacci hashing).
func (t *IndexTable) home(trigger isa.Block) int {
	return int((uint64(trigger) * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the bucket holding trigger, or the empty bucket that ends
// its probe sequence.
func (t *IndexTable) find(trigger isa.Block) int {
	mask := len(t.slots) - 1
	i := t.home(trigger)
	for t.slots[i].entry != 0 && t.slots[i].trigger != trigger {
		i = (i + 1) & mask
	}
	return i
}

// lookup returns the entry number mapped to trigger.
func (t *IndexTable) lookup(trigger isa.Block) (int, bool) {
	s := t.slots[t.find(trigger)]
	return int(s.entry) - 1, s.entry != 0
}

// remove deletes trigger's bucket, shifting later members of the probe
// run back so no lookup ever stops early at the hole.
func (t *IndexTable) remove(trigger isa.Block) {
	mask := len(t.slots) - 1
	hole := t.find(trigger)
	for j := (hole + 1) & mask; t.slots[j].entry != 0; j = (j + 1) & mask {
		// Bucket j may fill the hole when its home is no further along
		// the probe run than the hole is.
		if (j-t.home(t.slots[j].trigger))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = indexSlot{}
}

// Cap returns the entry capacity.
func (t *IndexTable) Cap() int { return t.cap }

// Len returns the number of live entries.
func (t *IndexTable) Len() int { return len(t.entries) }

// unlink removes entry i from the LRU list.
func (t *IndexTable) unlink(i int) {
	e := &t.entries[i]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tailIdx = e.prev
	}
	e.prev, e.next = -1, -1
}

// pushFront inserts entry i at the MRU position.
func (t *IndexTable) pushFront(i int) {
	e := &t.entries[i]
	e.prev = -1
	e.next = t.head
	if t.head >= 0 {
		t.entries[t.head].prev = i
	}
	t.head = i
	if t.tailIdx < 0 {
		t.tailIdx = i
	}
}

// Put maps trigger to pos, updating an existing entry or evicting the LRU.
func (t *IndexTable) Put(trigger isa.Block, pos uint64) {
	if i, ok := t.lookup(trigger); ok {
		t.entries[i].pos = pos
		t.unlink(i)
		t.pushFront(i)
		return
	}
	var i int
	if len(t.entries) < t.cap {
		i = len(t.entries)
		if 2*(i+1) > len(t.slots) {
			t.resize(2 * len(t.slots))
		}
		t.entries = append(grow(t.entries, t.cap), indexEntry{})
	} else {
		i = t.tailIdx
		t.remove(t.entries[i].trigger)
		t.unlink(i)
	}
	t.entries[i] = indexEntry{trigger: trigger, pos: pos, prev: -1, next: -1}
	t.slots[t.find(trigger)] = indexSlot{trigger: trigger, entry: int32(i + 1)}
	t.pushFront(i)
}

// Get returns the most recent history position recorded for trigger and
// promotes the entry to MRU.
func (t *IndexTable) Get(trigger isa.Block) (uint64, bool) {
	i, ok := t.lookup(trigger)
	if !ok {
		return 0, false
	}
	t.unlink(i)
	t.pushFront(i)
	return t.entries[i].pos, true
}

// Has reports whether trigger has an entry, without promoting it.
func (t *IndexTable) Has(trigger isa.Block) bool {
	_, ok := t.lookup(trigger)
	return ok
}
