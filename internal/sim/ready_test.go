package sim

import (
	"testing"

	"repro/internal/frontend"
	"repro/internal/isa"
	"repro/internal/prefetch"
)

// readySim is a simulator with context-switch pollution off, so the only
// cache traffic is what a test issues itself.
func readySim(t *testing.T) *Simulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.System.CtxSwitchEveryInstrs = 0
	return newPass([]Job{{Config: cfg}}, []prefetch.Prefetcher{prefetch.None{}}).lanes[0]
}

// evict pushes b out of the L1-I with demand fills of same-set blocks,
// without touching the simulator's clock.
func evict(s *Simulator, b isa.Block) {
	sets := isa.Block(s.l1.Config().Sets())
	for w := 1; w <= s.l1.Config().Assoc; w++ {
		s.l1.Fill(b+isa.Block(w)*sets, false)
	}
	if s.l1.Contains(b) {
		panic("evict: block still resident")
	}
}

// TestReadyTimeFollowsNewestPrefetch: a prefetched block evicted unused
// and then prefetched again is charged against the second prefetch's
// completion cycle only. The first prefetch went to memory, the second
// hits in L2 (the block has been filled before), so charging the stale
// cycle would cost the full memory latency instead of the L2 latency.
func TestReadyTimeFollowsNewestPrefetch(t *testing.T) {
	s := readySim(t)
	b := isa.Block(0x4000)
	s.iss.Prefetch(b) // cold: completes after a memory fill
	evict(s, b)
	s.iss.Prefetch(b) // refetched: completes after an L2 hit
	s.access(frontend.Access{Block: b})
	if want := uint64(s.cfg.System.L2HitCycles); s.stall != want {
		t.Errorf("stall = %d cycles, want %d (newest prefetch's L2 latency, not memory's %d)",
			s.stall, want, s.cfg.System.MemCycles())
	}
	if s.coveredMisses != 1 {
		t.Errorf("covered misses = %d, want 1", s.coveredMisses)
	}
}

// TestReadyTimesClearedAtWarmupReset: the warmup reset restarts the
// cycle counter, so a prefetch in flight across it counts as complete —
// its first demand hit afterwards is covered and charges no stall.
func TestReadyTimesClearedAtWarmupReset(t *testing.T) {
	for _, reset := range []bool{false, true} {
		s := readySim(t)
		b := isa.Block(0x4000)
		s.iss.Prefetch(b)
		if reset {
			s.resetStats()
		}
		s.access(frontend.Access{Block: b})
		want := uint64(s.cfg.System.MemCycles()) // still in flight
		if reset {
			want = 0
		}
		if s.stall != want {
			t.Errorf("reset=%v: stall = %d cycles, want %d", reset, s.stall, want)
		}
		if s.coveredMisses != 1 {
			t.Errorf("reset=%v: covered misses = %d, want 1", reset, s.coveredMisses)
		}
	}
}
