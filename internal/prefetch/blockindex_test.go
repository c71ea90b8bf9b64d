package prefetch

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

// TestBlockIndexMatchesMap runs seeded put/get sequences through TIFS's
// miss index and a Go map side by side, across several table doublings,
// with keys spread over the whole block space, clustered (block 0
// included), and strided so they collide in the hash's high bits.
func TestBlockIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]isa.Block, 50+rng.Intn(2000))
		for i := range pool {
			switch i % 3 {
			case 0:
				pool[i] = isa.Block(rng.Uint64())
			case 1:
				pool[i] = isa.Block(i)
			default:
				pool[i] = isa.Block(i) << 40
			}
		}
		var x blockIndex
		ref := map[isa.Block]int{}
		for step := 0; step < 4*len(pool); step++ {
			k := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				v := rng.Intn(1 << 30)
				x.put(k, v)
				ref[k] = v
			}
			got, ok := x.get(k)
			want, wok := ref[k]
			if got != want || ok != wok {
				t.Fatalf("seed %d step %d: get(%#x) = %d,%v, want %d,%v", seed, step, uint64(k), got, ok, want, wok)
			}
			if x.n != len(ref) || 2*x.n > len(x.slots) {
				t.Fatalf("seed %d step %d: %d keys in %d buckets, model holds %d", seed, step, x.n, len(x.slots), len(ref))
			}
		}
		for _, k := range pool {
			got, ok := x.get(k)
			if want, wok := ref[k]; got != want || ok != wok {
				t.Fatalf("seed %d: final get(%#x) = %d,%v, want %d,%v", seed, uint64(k), got, ok, want, wok)
			}
		}
	}
}
