package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestHistoryBufferAppendAt(t *testing.T) {
	h := NewHistoryBuffer(4)
	g := DefaultGeometry()
	positions := make([]uint64, 6)
	for i := 0; i < 6; i++ {
		positions[i] = h.Append(NewRegion(g, isa.Block(i), isa.TL0, false))
	}
	// Oldest two are overwritten.
	for i := 0; i < 2; i++ {
		if _, ok := h.At(positions[i]); ok {
			t.Errorf("position %d should be overwritten", i)
		}
	}
	for i := 2; i < 6; i++ {
		r, ok := h.At(positions[i])
		if !ok || r.Trigger != isa.Block(i) {
			t.Errorf("position %d: %v %v", i, r, ok)
		}
	}
	if _, ok := h.At(h.Tail()); ok {
		t.Error("future position should be invalid")
	}
}

func TestHistoryBufferPositionsMonotone(t *testing.T) {
	h := NewHistoryBuffer(2)
	g := DefaultGeometry()
	var last uint64
	for i := 0; i < 10; i++ {
		pos := h.Append(NewRegion(g, isa.Block(i), isa.TL0, false))
		if i > 0 && pos != last+1 {
			t.Fatalf("positions not monotone: %d after %d", pos, last)
		}
		last = pos
	}
}

func TestHistoryBufferZeroCap(t *testing.T) {
	h := NewHistoryBuffer(0)
	if h.Cap() != 1 {
		t.Errorf("zero capacity normalized to %d, want 1", h.Cap())
	}
}

func TestHistoryRoundTripProperty(t *testing.T) {
	f := func(capRaw uint8, n uint8) bool {
		capacity := int(capRaw%32) + 1
		h := NewHistoryBuffer(capacity)
		g := DefaultGeometry()
		var positions []uint64
		for i := 0; i < int(n); i++ {
			positions = append(positions, h.Append(NewRegion(g, isa.Block(i), isa.TL0, false)))
		}
		for i, pos := range positions {
			r, ok := h.At(pos)
			retained := int(n)-i <= capacity
			if retained != ok {
				return false
			}
			if ok && r.Trigger != isa.Block(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexTablePutGet(t *testing.T) {
	idx := NewIndexTable(8)
	idx.Put(100, 5)
	idx.Put(200, 9)
	if pos, ok := idx.Get(100); !ok || pos != 5 {
		t.Errorf("Get(100) = %d,%v", pos, ok)
	}
	if pos, ok := idx.Get(200); !ok || pos != 9 {
		t.Errorf("Get(200) = %d,%v", pos, ok)
	}
	if _, ok := idx.Get(300); ok {
		t.Error("missing key reported present")
	}
	// Update replaces the position.
	idx.Put(100, 42)
	if pos, _ := idx.Get(100); pos != 42 {
		t.Errorf("updated Get(100) = %d, want 42", pos)
	}
	if idx.Len() != 2 {
		t.Errorf("Len = %d, want 2", idx.Len())
	}
}

func TestIndexTableLRUEviction(t *testing.T) {
	idx := NewIndexTable(2)
	idx.Put(1, 10)
	idx.Put(2, 20)
	idx.Get(1)     // 1 is now MRU
	idx.Put(3, 30) // evicts 2
	if _, ok := idx.Get(2); ok {
		t.Error("LRU entry 2 should have been evicted")
	}
	if _, ok := idx.Get(1); !ok {
		t.Error("recently used entry 1 should survive")
	}
	if _, ok := idx.Get(3); !ok {
		t.Error("new entry 3 should be present")
	}
}

func TestIndexTableCapacityOne(t *testing.T) {
	idx := NewIndexTable(1)
	idx.Put(1, 10)
	idx.Put(2, 20)
	if _, ok := idx.Get(1); ok {
		t.Error("capacity-1 table should have evicted 1")
	}
	if pos, ok := idx.Get(2); !ok || pos != 20 {
		t.Errorf("Get(2) = %d,%v", pos, ok)
	}
}

func TestIndexTableNeverExceedsCap(t *testing.T) {
	f := func(keys []uint16) bool {
		idx := NewIndexTable(16)
		for i, k := range keys {
			idx.Put(isa.Block(k), uint64(i))
		}
		return idx.Len() <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexTableLatestWins(t *testing.T) {
	f := func(seq []uint8) bool {
		idx := NewIndexTable(1 << 16) // effectively unbounded here
		want := map[isa.Block]uint64{}
		for i, k := range seq {
			idx.Put(isa.Block(k), uint64(i))
			want[isa.Block(k)] = uint64(i)
		}
		for k, pos := range want {
			got, ok := idx.Get(k)
			if !ok || got != pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// lruModel is the reference the index table must match: a map from
// trigger to position plus an explicit recency order, MRU first.
type lruModel struct {
	cap   int
	pos   map[isa.Block]uint64
	order []isa.Block
}

func (m *lruModel) touch(k isa.Block) {
	for i, o := range m.order {
		if o == k {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.order = append([]isa.Block{k}, m.order...)
}

func (m *lruModel) put(k isa.Block, pos uint64) {
	if _, ok := m.pos[k]; !ok && len(m.pos) == m.cap {
		lru := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		delete(m.pos, lru)
	}
	m.pos[k] = pos
	m.touch(k)
}

func (m *lruModel) get(k isa.Block) (uint64, bool) {
	pos, ok := m.pos[k]
	if ok {
		m.touch(k)
	}
	return pos, ok
}

// TestIndexTableMatchesLRUModel runs seeded random Put/Get/Has sequences
// against the map-plus-LRU model at capacities from 1 to non-powers of
// two, with key pools small enough that most Puts evict (exercising the
// open-addressed table's backward-shift delete) and keys spread over the
// whole block space, clustered, and strided.
func TestIndexTableMatchesLRUModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 16, 100} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			pool := make([]isa.Block, 3*capacity+2)
			for i := range pool {
				switch i % 3 {
				case 0:
					pool[i] = isa.Block(rng.Uint64())
				case 1:
					pool[i] = isa.Block(0x4000 + i)
				default:
					pool[i] = isa.Block(i) << 32
				}
			}
			idx := NewIndexTable(capacity)
			ref := &lruModel{cap: capacity, pos: map[isa.Block]uint64{}}
			for step := 0; step < 3000; step++ {
				k := pool[rng.Intn(len(pool))]
				switch rng.Intn(3) {
				case 0:
					idx.Put(k, uint64(step))
					ref.put(k, uint64(step))
				case 1:
					got, ok := idx.Get(k)
					want, wok := ref.get(k)
					if got != want || ok != wok {
						t.Fatalf("cap %d seed %d step %d: Get(%#x) = %d,%v, want %d,%v",
							capacity, seed, step, uint64(k), got, ok, want, wok)
					}
				default:
					if _, want := ref.pos[k]; idx.Has(k) != want {
						t.Fatalf("cap %d seed %d step %d: Has(%#x) = %v, want %v",
							capacity, seed, step, uint64(k), !want, want)
					}
				}
				if idx.Len() != len(ref.pos) {
					t.Fatalf("cap %d seed %d step %d: Len = %d, want %d", capacity, seed, step, idx.Len(), len(ref.pos))
				}
			}
			for _, k := range pool {
				if _, want := ref.pos[k]; idx.Has(k) != want {
					t.Fatalf("cap %d seed %d: final Has(%#x) = %v, want %v", capacity, seed, uint64(k), !want, want)
				}
			}
		}
	}
}
