package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// The history buffer and index table grow on demand. These tests run
// them against eager reference copies — the same structures allocated
// whole at construction — over seeded operation sequences that cross
// the capacity edge, so growth is shown to change memory and nothing
// else: same records at the same positions, same entry numbering, same
// LRU order.

// eagerHistory is the history buffer allocated whole up front.
type eagerHistory struct {
	buf  []Region
	tail uint64
}

func (h *eagerHistory) append(r Region) uint64 {
	pos := h.tail
	h.buf[pos%uint64(len(h.buf))] = r
	h.tail++
	return pos
}

func (h *eagerHistory) at(pos uint64) (Region, bool) {
	if pos >= h.tail || h.tail-pos > uint64(len(h.buf)) {
		return Region{}, false
	}
	return h.buf[pos%uint64(len(h.buf))], true
}

func TestHistoryGrowthMatchesEager(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 15, 16, 17, 31, 33, 100} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(capacity)))
			h := NewHistoryBuffer(capacity)
			ref := &eagerHistory{buf: make([]Region, capacity)}
			for step := 0; step < 4*capacity+20; step++ {
				r := Region{Trigger: isa.Block(rng.Uint64()), Bits: rng.Uint64(), TriggerTagged: rng.Intn(2) == 0}
				if got, want := h.Append(r), ref.append(r); got != want {
					t.Fatalf("cap %d seed %d: Append = %d, want %d", capacity, seed, got, want)
				}
				lo := uint64(0)
				if ref.tail > uint64(2*capacity) {
					lo = ref.tail - uint64(2*capacity)
				}
				for pos := lo; pos <= ref.tail+1; pos++ {
					got, ok := h.At(pos)
					want, wok := ref.at(pos)
					if got != want || ok != wok {
						t.Fatalf("cap %d seed %d step %d: At(%d) = %+v,%v, want %+v,%v", capacity, seed, step, pos, got, ok, want, wok)
					}
				}
				if len(h.buf) > capacity || cap(h.buf) > capacity {
					t.Fatalf("cap %d: buffer holds %d (cap %d), beyond capacity", capacity, len(h.buf), cap(h.buf))
				}
			}
			if h.Tail() != ref.tail || h.Cap() != capacity {
				t.Fatalf("cap %d seed %d: Tail/Cap = %d/%d, want %d/%d", capacity, seed, h.Tail(), h.Cap(), ref.tail, capacity)
			}
		}
	}
}

// eagerIndex is the index table with its entry pool and lookup allocated
// whole up front (a map stands in for the fixed open-addressed table;
// lookup order does not affect results).
type eagerIndex struct {
	entries []indexEntry
	find    map[isa.Block]int
	head    int
	tailIdx int
	used    int
}

func newEagerIndex(capacity int) *eagerIndex {
	return &eagerIndex{entries: make([]indexEntry, capacity), find: map[isa.Block]int{}, head: -1, tailIdx: -1}
}

func (t *eagerIndex) unlink(i int) {
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

func (t *eagerIndex) pushFront(i int) {
	e := &t.entries[i]
	e.prev, e.next = -1, t.head
	if t.head >= 0 {
		t.entries[t.head].prev = i
	}
	t.head = i
	if t.tailIdx < 0 {
		t.tailIdx = i
	}
}

func (t *eagerIndex) put(trigger isa.Block, pos uint64) {
	if i, ok := t.find[trigger]; ok {
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
		delete(t.find, t.entries[i].trigger)
		t.unlink(i)
	}
	t.entries[i] = indexEntry{trigger: trigger, pos: pos, prev: -1, next: -1}
	t.find[trigger] = i
	t.pushFront(i)
}

func (t *eagerIndex) get(trigger isa.Block) (uint64, bool) {
	i, ok := t.find[trigger]
	if !ok {
		return 0, false
	}
	t.unlink(i)
	t.pushFront(i)
	return t.entries[i].pos, true
}

// sameIndex compares entry numbering and LRU order.
func sameIndex(idx *IndexTable, ref *eagerIndex) error {
	if idx.Len() != ref.used {
		return fmt.Errorf("Len = %d, want %d", idx.Len(), ref.used)
	}
	for i := 0; i < ref.used; i++ {
		if idx.entries[i] != ref.entries[i] {
			return fmt.Errorf("entry %d = %+v, want %+v", i, idx.entries[i], ref.entries[i])
		}
	}
	if idx.head != ref.head || idx.tailIdx != ref.tailIdx {
		return fmt.Errorf("MRU/LRU = %d/%d, want %d/%d", idx.head, idx.tailIdx, ref.head, ref.tailIdx)
	}
	if 2*idx.Len() > len(idx.slots) {
		return fmt.Errorf("%d entries in %d buckets: load above one half", idx.Len(), len(idx.slots))
	}
	return nil
}

func TestIndexGrowthMatchesEager(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 8, 9, 16, 17, 100} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			pool := make([]isa.Block, 2*capacity+3)
			for i := range pool {
				pool[i] = isa.Block(rng.Uint64())
			}
			idx := NewIndexTable(capacity)
			ref := newEagerIndex(capacity)
			for step := 0; step < 40*capacity+50; step++ {
				k := pool[rng.Intn(len(pool))]
				if rng.Intn(3) == 0 {
					got, ok := idx.Get(k)
					want, wok := ref.get(k)
					if got != want || ok != wok {
						t.Fatalf("cap %d seed %d step %d: Get = %d,%v, want %d,%v", capacity, seed, step, got, ok, want, wok)
					}
				} else {
					idx.Put(k, uint64(step))
					ref.put(k, uint64(step))
				}
				if err := sameIndex(idx, ref); err != nil {
					t.Fatalf("cap %d seed %d step %d: %v", capacity, seed, step, err)
				}
				if cap(idx.entries) > capacity {
					t.Fatalf("cap %d: entry pool reserved %d", capacity, cap(idx.entries))
				}
			}
			if idx.Len() != capacity {
				t.Fatalf("cap %d seed %d: never filled (Len %d)", capacity, seed, idx.Len())
			}
		}
	}
}
