// Package cache implements the set-associative instruction cache model used
// throughout the simulator: a configurable geometry with true-LRU
// replacement, a per-line prefetched bit (PIF tags non-prefetched fetches to
// gate index-table insertion), and a per-line prefetch completion cycle the
// timing simulator charges partial stalls against.
//
// The model is behavioural, not cycle-accurate: Probe/Fill mutate state
// immediately, and the timing simulator (internal/sim) accounts for
// latencies separately. This mirrors how the paper's trace-based analyses
// treat the cache (Section 2's studies "do not perturb the cache state").
package cache

import (
	"fmt"

	"repro/internal/isa"
)

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// Assoc is the set associativity (ways).
	Assoc int
	// BlockBytes is the line size; must equal isa.BlockBytes for the L1-I.
	BlockBytes int
	// MSHRs is the miss-status register count Table I lists (0 means
	// unlimited). It is descriptive: the behavioural model installs fills
	// immediately and never bounds them by it.
	MSHRs int
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.Assoc*c.BlockBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by assoc*block %d", c.SizeBytes, c.Assoc*c.BlockBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.MSHRs < 0 {
		return fmt.Errorf("cache: MSHRs = %d", c.MSHRs)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Assoc * c.BlockBytes) }

// line is one cache way: 16 bytes, so a 2-way set shares one CPU cache
// line.
type line struct {
	tag uint64
	// pending is 0 unless the line was filled by a prefetch and not yet
	// demanded (the prefetched bit); then it is 1 + the cycle the
	// prefetch completes.
	pending uint64
}

// Stats counts cache events.
type Stats struct {
	// JSON names are stable snake_case: Stats is embedded in sim.Result,
	// which the results store persists and diffs across commits.
	Accesses       uint64 `json:"accesses"` // demand probes
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	PrefetchHits   uint64 `json:"prefetch_hits"` // demand hits on lines brought in by prefetch
	PrefetchFills  uint64 `json:"prefetch_fills"`
	DemandFills    uint64 `json:"demand_fills"`
	Evictions      uint64 `json:"evictions"`
	PrefetchUnused uint64 `json:"prefetch_unused"` // prefetched lines evicted without a demand hit
}

// HitRate returns hits/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Add accumulates o into s field by field. Every field is a pure event
// count, so adding disjoint measurement intervals composes losslessly —
// the property sharded replay's result stitching relies on
// (sim.MergeShardResults).
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchFills += o.PrefetchFills
	s.DemandFills += o.DemandFills
	s.Evictions += o.Evictions
	s.PrefetchUnused += o.PrefetchUnused
}

// Sub removes o from s field by field — the inverse of Add, used to
// carve a measurement sub-interval out of cumulative counters (sharded
// replay's offset snapshots). Every field is monotone over a run, so o
// taken earlier in the same run never underflows s.
func (s *Stats) Sub(o Stats) {
	s.Accesses -= o.Accesses
	s.Hits -= o.Hits
	s.Misses -= o.Misses
	s.PrefetchHits -= o.PrefetchHits
	s.PrefetchFills -= o.PrefetchFills
	s.DemandFills -= o.DemandFills
	s.Evictions -= o.Evictions
	s.PrefetchUnused -= o.PrefetchUnused
}

// Cache is a set-associative cache with true LRU replacement.
// Lines are identified by isa.Block numbers.
type Cache struct {
	cfg     Config
	lines   []line  // sets×assoc ways; set i is lines[i*assoc:][:n[i]], MRU..LRU
	n       []int32 // resident ways per set
	setMask uint64
	stats   Stats
}

// New builds a cache; it panics on an invalid geometry (a configuration
// error is a programming bug, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:     cfg,
		lines:   make([]line, cfg.Sets()*cfg.Assoc),
		n:       make([]int32, cfg.Sets()),
		setMask: uint64(cfg.Sets() - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters (used after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// ClearReady zeroes every line's prefetch completion cycle, so that a
// caller restarting its cycle counter sees every in-flight prefetch as
// complete.
func (c *Cache) ClearReady() {
	for i := range c.lines {
		c.lines[i].pending = min(c.lines[i].pending, 1)
	}
}

// set returns the index of b's set and its resident ways, MRU first.
func (c *Cache) set(b isa.Block) (int, []line) {
	si := int(uint64(b) & c.setMask)
	base := si * c.cfg.Assoc
	return si, c.lines[base : base+int(c.n[si])]
}

// find returns the way index of b in its set, or -1.
func find(set []line, b isa.Block) int {
	for i := range set {
		if set[i].tag == uint64(b) {
			return i
		}
	}
	return -1
}

// Contains reports whether the block is resident without touching LRU
// state or statistics (the tag probe prefetchers use before queuing).
func (c *Cache) Contains(b isa.Block) bool {
	_, set := c.set(b)
	return find(set, b) >= 0
}

// Access performs a demand access: on hit the line moves to MRU and the
// prefetched bit clears; on miss nothing is filled (callers decide whether
// and when to Fill). It returns hit status and whether the hit line had
// been brought in by a prefetch (a "prefetch hit").
func (c *Cache) Access(b isa.Block) (hit, wasPrefetched bool) {
	hit, wasPrefetched, _ = c.AccessReady(b)
	return hit, wasPrefetched
}

// AccessReady is Access that also returns, on a prefetch hit, the
// completion cycle FillPrefetch recorded for the line (0 otherwise).
func (c *Cache) AccessReady(b isa.Block) (hit, wasPrefetched bool, ready uint64) {
	c.stats.Accesses++
	_, set := c.set(b)
	i := find(set, b)
	if i < 0 {
		c.stats.Misses++
		return false, false, 0
	}
	if l := &set[i]; l.pending != 0 {
		wasPrefetched, ready = true, l.pending-1
		l.pending = 0
		c.stats.PrefetchHits++
	}
	toMRU(set, i)
	c.stats.Hits++
	return true, wasPrefetched, ready
}

// Fill installs a block. prefetch marks the line as brought in by the
// prefetcher. Filling a resident block refreshes its LRU position and, for
// demand fills, clears the prefetched bit. The victim block (if any) is
// returned so callers can model writeback/invalidation effects.
func (c *Cache) Fill(b isa.Block, prefetch bool) (victim isa.Block, evicted bool) {
	return c.fill(b, prefetch, 0)
}

// FillPrefetch is Fill(b, true) that also records ready, the cycle the
// prefetch completes, on a newly installed line; AccessReady returns it
// on the line's first demand hit.
func (c *Cache) FillPrefetch(b isa.Block, ready uint64) (victim isa.Block, evicted bool) {
	return c.fill(b, true, ready)
}

func (c *Cache) fill(b isa.Block, prefetch bool, ready uint64) (victim isa.Block, evicted bool) {
	si, set := c.set(b)
	if i := find(set, b); i >= 0 {
		if !prefetch {
			set[i].pending = 0
		}
		toMRU(set, i)
		return 0, false
	}
	if prefetch {
		c.stats.PrefetchFills++
	} else {
		c.stats.DemandFills++
	}
	if len(set) < c.cfg.Assoc {
		c.n[si]++
		set = set[:len(set)+1]
	} else {
		// Evict LRU (last way).
		v := set[len(set)-1]
		c.stats.Evictions++
		if v.pending != 0 {
			c.stats.PrefetchUnused++
		}
		victim, evicted = isa.Block(v.tag), true
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: uint64(b)}
	if prefetch {
		set[0].pending = ready + 1
	}
	return victim, evicted
}

// toMRU promotes set[i] to the MRU position.
func toMRU(set []line, i int) {
	if i == 0 {
		return
	}
	l := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = l
}

// Invalidate removes a block if present, returning whether it was resident.
func (c *Cache) Invalidate(b isa.Block) bool {
	si, set := c.set(b)
	i := find(set, b)
	if i < 0 {
		return false
	}
	copy(set[i:], set[i+1:])
	c.n[si]--
	return true
}

// Flush empties the cache (statistics are preserved).
func (c *Cache) Flush() { clear(c.n) }

// Resident returns the number of valid lines.
func (c *Cache) Resident() int {
	n := 0
	for _, k := range c.n {
		n += int(k)
	}
	return n
}
