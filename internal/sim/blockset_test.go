package sim

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// TestBlockSetMatchesMap drives the paged bitset and a map through the
// same seeded inserts and probes. Blocks are drawn around page edges,
// block 0, the top of the block space, the workload segments and the
// polluter's foreign range (cache.foreignBase = 0x7f00_0000>>6), so both
// the last-page cache and the directory are crossed constantly.
func TestBlockSetMatchesMap(t *testing.T) {
	const page = 1 << blockPageShift
	centres := []isa.Block{
		0,
		page - 1, page, 2*page - 1,
		^isa.Block(0), ^isa.Block(0) - page,
		isa.Block(0x0010_0000 >> isa.BlockShift), // application segment
		isa.Block(0x0200_0000 >> isa.BlockShift), // shared libraries
		isa.Block(0x0400_0000 >> isa.BlockShift), // trap handlers
		isa.Block(0x7f00_0000 >> isa.BlockShift), // polluter's foreign blocks
		isa.Block(0x7f00_0000>>isa.BlockShift) + 1<<16 - 1,
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var set blockSet
		ref := map[isa.Block]struct{}{}
		pick := func() isa.Block {
			if rng.Intn(8) == 0 {
				return isa.Block(rng.Uint64()) // anywhere in the space
			}
			return centres[rng.Intn(len(centres))] + isa.Block(rng.Intn(129)-64)
		}
		for step := 0; step < 5000; step++ {
			b := pick()
			if rng.Intn(2) == 0 {
				set.add(b)
				ref[b] = struct{}{}
			}
			probe := pick()
			_, want := ref[probe]
			if got := set.has(probe); got != want {
				t.Fatalf("seed %d step %d: has(%#x) = %v, want %v", seed, step, uint64(probe), got, want)
			}
		}
		for b := range ref {
			if !set.has(b) {
				t.Fatalf("seed %d: inserted block %#x missing", seed, uint64(b))
			}
		}
	}
}
