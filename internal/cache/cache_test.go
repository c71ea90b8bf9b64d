package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func l1Config() Config {
	return Config{SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 64, MSHRs: 32}
}

func TestConfigValidate(t *testing.T) {
	if err := l1Config().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 64 << 10, Assoc: 0, BlockBytes: 64},
		{SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 0},
		{SizeBytes: 100, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 3 * 64 * 2, Assoc: 2, BlockBytes: 64}, // 3 sets: not pow2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestSets(t *testing.T) {
	if got := l1Config().Sets(); got != 512 {
		t.Errorf("Sets = %d, want 512 (64KB/2-way/64B)", got)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{SizeBytes: 1, Assoc: 1, BlockBytes: 3})
}

func TestMissThenHit(t *testing.T) {
	c := New(l1Config())
	b := isa.Block(42)
	if hit, _ := c.Access(b); hit {
		t.Fatal("cold access should miss")
	}
	c.Fill(b, false)
	if hit, pf := c.Access(b); !hit || pf {
		t.Fatalf("hit=%v pf=%v after demand fill", hit, pf)
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.DemandFills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPrefetchHitTracking(t *testing.T) {
	c := New(l1Config())
	b := isa.Block(7)
	c.Fill(b, true)
	if !c.Contains(b) {
		t.Fatal("prefetched block should be resident")
	}
	hit, pf := c.Access(b)
	if !hit || !pf {
		t.Fatalf("first demand access: hit=%v pf=%v, want true,true", hit, pf)
	}
	// Second access: prefetched bit should have cleared.
	if _, pf := c.Access(b); pf {
		t.Error("prefetched bit should clear after first demand hit")
	}
	if c.Stats().PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d, want 1", c.Stats().PrefetchHits)
	}
}

func TestLRUReplacement(t *testing.T) {
	// Direct-mapped-free test: 2-way, blocks mapping to the same set.
	cfg := Config{SizeBytes: 2 * 64 * 4, Assoc: 2, BlockBytes: 64} // 4 sets
	c := New(cfg)
	sameSet := func(i int) isa.Block { return isa.Block(i * 4) } // stride = sets
	c.Fill(sameSet(0), false)
	c.Fill(sameSet(1), false)
	// Touch 0 so 1 is LRU.
	c.Access(sameSet(0))
	victim, evicted := c.Fill(sameSet(2), false)
	if !evicted || victim != sameSet(1) {
		t.Errorf("victim = %v (evicted=%v), want %v", victim, evicted, sameSet(1))
	}
	if !c.Contains(sameSet(0)) || !c.Contains(sameSet(2)) || c.Contains(sameSet(1)) {
		t.Error("wrong residency after eviction")
	}
}

func TestFillResidentRefreshesLRU(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 64 * 4, Assoc: 2, BlockBytes: 64}
	c := New(cfg)
	sameSet := func(i int) isa.Block { return isa.Block(i * 4) }
	c.Fill(sameSet(0), false)
	c.Fill(sameSet(1), false) // MRU=1, LRU=0
	c.Fill(sameSet(0), false) // refresh 0 → MRU=0, LRU=1
	victim, evicted := c.Fill(sameSet(2), false)
	if !evicted || victim != sameSet(1) {
		t.Errorf("victim = %v, want %v", victim, sameSet(1))
	}
}

func TestPrefetchUnusedCounting(t *testing.T) {
	cfg := Config{SizeBytes: 1 * 64 * 2, Assoc: 1, BlockBytes: 64} // 2 sets, direct mapped
	c := New(cfg)
	b0, b2 := isa.Block(0), isa.Block(2) // same set
	c.Fill(b0, true)
	c.Fill(b2, false) // evicts b0 which was never used
	s := c.Stats()
	if s.PrefetchUnused != 1 {
		t.Errorf("PrefetchUnused = %d, want 1", s.PrefetchUnused)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(l1Config())
	b := isa.Block(9)
	c.Fill(b, false)
	if !c.Invalidate(b) {
		t.Error("Invalidate should find resident block")
	}
	if c.Contains(b) {
		t.Error("block still resident after Invalidate")
	}
	if c.Invalidate(b) {
		t.Error("second Invalidate should report absent")
	}
}

func TestFlushAndResident(t *testing.T) {
	c := New(l1Config())
	for i := 0; i < 100; i++ {
		c.Fill(isa.Block(i), false)
	}
	if got := c.Resident(); got != 100 {
		t.Errorf("Resident = %d, want 100", got)
	}
	c.Flush()
	if got := c.Resident(); got != 0 {
		t.Errorf("Resident after Flush = %d", got)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("zero-access hit rate should be 0")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %f", s.HitRate())
	}
}

func TestResetStats(t *testing.T) {
	c := New(l1Config())
	c.Access(isa.Block(1))
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("ResetStats should zero counters")
	}
}

func TestPrefetchReadyCycle(t *testing.T) {
	c := New(l1Config())
	b := isa.Block(11)
	c.FillPrefetch(b, 500)
	if hit, pf, ready := c.AccessReady(b); !hit || !pf || ready != 500 {
		t.Fatalf("first demand hit: hit=%v pf=%v ready=%d, want true,true,500", hit, pf, ready)
	}
	// Only the first demand hit of a prefetched line carries its cycle.
	if _, pf, ready := c.AccessReady(b); pf || ready != 0 {
		t.Errorf("second demand hit: pf=%v ready=%d, want false,0", pf, ready)
	}
	// A demand fill carries no cycle.
	c.Fill(isa.Block(12), false)
	if _, _, ready := c.AccessReady(isa.Block(12)); ready != 0 {
		t.Errorf("demand-filled line ready = %d, want 0", ready)
	}
	// ClearReady zeroes the cycle but keeps the prefetched bit.
	c.FillPrefetch(isa.Block(13), 900)
	c.ClearReady()
	if hit, pf, ready := c.AccessReady(isa.Block(13)); !hit || !pf || ready != 0 {
		t.Errorf("after ClearReady: hit=%v pf=%v ready=%d, want true,true,0", hit, pf, ready)
	}
}

// refCache is a set-of-slices LRU model: the cache's behaviour before its
// sets were flattened into one array.
type refLine struct {
	tag        uint64
	ready      uint64
	prefetched bool
}

type refCache struct {
	sets  [][]refLine
	assoc int
	stats Stats
}

func (r *refCache) find(set []refLine, b isa.Block) int {
	for i := range set {
		if set[i].tag == uint64(b) {
			return i
		}
	}
	return -1
}

func (r *refCache) toMRU(si, i int) {
	set := r.sets[si]
	l := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = l
}

func (r *refCache) access(b isa.Block) (hit, pf bool, ready uint64) {
	r.stats.Accesses++
	si := int(uint64(b)) % len(r.sets)
	i := r.find(r.sets[si], b)
	if i < 0 {
		r.stats.Misses++
		return false, false, 0
	}
	l := &r.sets[si][i]
	if l.prefetched {
		pf, ready = true, l.ready
		r.stats.PrefetchHits++
	}
	l.prefetched = false
	r.toMRU(si, i)
	r.stats.Hits++
	return true, pf, ready
}

func (r *refCache) fill(b isa.Block, prefetch bool, ready uint64) (isa.Block, bool) {
	si := int(uint64(b)) % len(r.sets)
	set := r.sets[si]
	if i := r.find(set, b); i >= 0 {
		if !prefetch {
			set[i].prefetched = false
		}
		r.toMRU(si, i)
		return 0, false
	}
	if prefetch {
		r.stats.PrefetchFills++
	} else {
		r.stats.DemandFills++
	}
	nl := refLine{tag: uint64(b), ready: ready, prefetched: prefetch}
	if len(set) < r.assoc {
		r.sets[si] = append([]refLine{nl}, set...)
		return 0, false
	}
	v := set[len(set)-1]
	r.stats.Evictions++
	if v.prefetched {
		r.stats.PrefetchUnused++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = nl
	return isa.Block(v.tag), true
}

func (r *refCache) invalidate(b isa.Block) bool {
	si := int(uint64(b)) % len(r.sets)
	i := r.find(r.sets[si], b)
	if i < 0 {
		return false
	}
	r.sets[si] = append(r.sets[si][:i], r.sets[si][i+1:]...)
	return true
}

func (r *refCache) resident() int {
	n := 0
	for _, set := range r.sets {
		n += len(set)
	}
	return n
}

// TestFlatSetsMatchReference drives the cache and the set-of-slices model
// through the same seeded mix of accesses, fills, prefetch fills,
// invalidations, ready-cycle clears and flushes, and requires identical results, victims,
// residency and statistics at every step.
func TestFlatSetsMatchReference(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 1 * 64 * 4, Assoc: 1, BlockBytes: 64},
		{SizeBytes: 2 * 64 * 8, Assoc: 2, BlockBytes: 64},
		{SizeBytes: 4 * 64 * 4, Assoc: 4, BlockBytes: 64},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := New(cfg)
			ref := &refCache{sets: make([][]refLine, cfg.Sets()), assoc: cfg.Assoc}
			for step := 0; step < 2000; step++ {
				b := isa.Block(rng.Intn(8 * cfg.Sets() * cfg.Assoc))
				switch op := rng.Intn(20); {
				case op < 8:
					h, p, r := c.AccessReady(b)
					wh, wp, wr := ref.access(b)
					if h != wh || p != wp || r != wr {
						t.Fatalf("%+v seed %d step %d: AccessReady(%d) = %v,%v,%d, want %v,%v,%d",
							cfg, seed, step, b, h, p, r, wh, wp, wr)
					}
				case op < 16:
					prefetch := op%2 == 0
					var ready uint64
					if prefetch {
						ready = uint64(rng.Intn(1000))
					}
					v, e := c.fill(b, prefetch, ready)
					wv, we := ref.fill(b, prefetch, ready)
					if v != wv || e != we {
						t.Fatalf("%+v seed %d step %d: fill(%d) victim %d,%v, want %d,%v",
							cfg, seed, step, b, v, e, wv, we)
					}
				case op < 19:
					if got, want := c.Invalidate(b), ref.invalidate(b); got != want {
						t.Fatalf("%+v seed %d step %d: Invalidate(%d) = %v, want %v", cfg, seed, step, b, got, want)
					}
				default:
					switch rng.Intn(10) {
					case 0:
						c.ClearReady()
						for _, set := range ref.sets {
							for i := range set {
								set[i].ready = 0
							}
						}
					case 1:
						c.Flush()
						for i := range ref.sets {
							ref.sets[i] = ref.sets[i][:0]
						}
					}
				}
				if c.Resident() != ref.resident() {
					t.Fatalf("%+v seed %d step %d: Resident = %d, want %d", cfg, seed, step, c.Resident(), ref.resident())
				}
				if got := c.Contains(b); got != (ref.find(ref.sets[int(uint64(b))%len(ref.sets)], b) >= 0) {
					t.Fatalf("%+v seed %d step %d: Contains(%d) = %v", cfg, seed, step, b, got)
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("%+v seed %d: stats %+v, want %+v", cfg, seed, c.Stats(), ref.stats)
			}
		}
	}
}

// TestFillAllocationFree pins the flat set layout: warming an empty cache
// to full occupancy and evicting from it allocates nothing.
func TestFillAllocationFree(t *testing.T) {
	c := New(l1Config())
	lines := c.Config().Sets() * c.Config().Assoc
	allocs := testing.AllocsPerRun(5, func() {
		c.Flush()
		for i := 0; i < 2*lines; i++ {
			c.Fill(isa.Block(i), i%3 == 0)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per warm-up of %d fills, want 0", allocs, 2*lines)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Config{SizeBytes: 4 * 64 * 8, Assoc: 4, BlockBytes: 64} // 8 sets, 32 lines
		c := New(cfg)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			b := isa.Block(rng.Intn(256))
			if hit, _ := c.Access(b); !hit {
				c.Fill(b, rng.Intn(2) == 0)
			}
		}
		return c.Resident() <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessAfterFillAlwaysHits(t *testing.T) {
	f := func(seed int64) bool {
		c := New(l1Config())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			b := isa.Block(rng.Intn(4096))
			c.Fill(b, false)
			if hit, _ := c.Access(b); !hit {
				return false // fill immediately followed by access must hit
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsConservation(t *testing.T) {
	// hits + misses == accesses under arbitrary interleavings.
	f := func(seed int64) bool {
		c := New(l1Config())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			b := isa.Block(rng.Intn(2048))
			switch rng.Intn(3) {
			case 0:
				if hit, _ := c.Access(b); !hit {
					c.Fill(b, false)
				}
			case 1:
				c.Fill(b, true)
			case 2:
				c.Invalidate(b)
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
