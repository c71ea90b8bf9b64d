package core

import "repro/internal/isa"

// HistoryBuffer is the circular FIFO of spatial region records
// (Section 4.2). Positions are absolute (monotonically increasing), so a
// stale index entry whose record has been overwritten is detectable.
type HistoryBuffer struct {
	buf  []Region
	tail uint64 // absolute position of the next append
}

// NewHistoryBuffer builds a buffer holding capacity regions. A capacity of
// 0 is normalized to 1.
func NewHistoryBuffer(capacity int) *HistoryBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &HistoryBuffer{buf: make([]Region, capacity)}
}

// Cap returns the buffer capacity in regions.
func (h *HistoryBuffer) Cap() int { return len(h.buf) }

// Tail returns the absolute position of the next append.
func (h *HistoryBuffer) Tail() uint64 { return h.tail }

// Append stores a region and returns its absolute position.
func (h *HistoryBuffer) Append(r Region) uint64 {
	pos := h.tail
	h.buf[pos%uint64(len(h.buf))] = r
	h.tail++
	return pos
}

// At returns the region at absolute position pos; ok is false when the
// position has been overwritten (older than capacity) or not yet written.
func (h *HistoryBuffer) At(pos uint64) (Region, bool) {
	if pos >= h.tail || h.tail-pos > uint64(len(h.buf)) {
		return Region{}, false
	}
	return h.buf[pos%uint64(len(h.buf))], true
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
// LRU replacement: a fixed entry pool threaded by an intrusive
// doubly-linked LRU list, found through a fixed open-addressed table of
// at least twice the capacity (linear probing, backward-shift delete), so
// no operation hashes through a Go map or allocates.
type IndexTable struct {
	entries []indexEntry
	slots   []indexSlot
	shift   uint // 64 - log2(len(slots))
	head    int  // MRU
	tailIdx int  // LRU
	used    int
}

// NewIndexTable builds an index with the given entry capacity (minimum 1).
func NewIndexTable(capacity int) *IndexTable {
	if capacity < 1 {
		capacity = 1
	}
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	return &IndexTable{
		entries: make([]indexEntry, capacity),
		slots:   make([]indexSlot, 1<<bits),
		shift:   64 - bits,
		head:    -1,
		tailIdx: -1,
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
func (t *IndexTable) Cap() int { return len(t.entries) }

// Len returns the number of live entries.
func (t *IndexTable) Len() int { return t.used }

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
	if t.used < len(t.entries) {
		i = t.used
		t.used++
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
