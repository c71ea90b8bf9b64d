package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// fakeIssuer collects prefetches into a set and can pretend residency.
type fakeIssuer struct {
	resident   map[isa.Block]bool
	prefetched []isa.Block
}

func newFakeIssuer() *fakeIssuer {
	return &fakeIssuer{resident: map[isa.Block]bool{}}
}

func (f *fakeIssuer) Contains(b isa.Block) bool { return f.resident[b] }

func (f *fakeIssuer) Prefetch(b isa.Block) {
	f.prefetched = append(f.prefetched, b)
	f.resident[b] = true
}

func (f *fakeIssuer) got(b isa.Block) bool {
	for _, x := range f.prefetched {
		if x == b {
			return true
		}
	}
	return false
}

// retire feeds a sequence of block numbers as retired instructions.
func retireBlocks(p *PIF, iss prefetch.Issuer, tl isa.TrapLevel, blocks ...isa.Block) {
	for _, b := range blocks {
		p.OnRetire(trace.Record{PC: b.BlockBase(), TL: tl}, true, iss)
	}
}

func TestPIFRecordsRegions(t *testing.T) {
	p := New(DefaultConfig())
	iss := newFakeIssuer()
	// Three separate regions: 100-102, 300, 500-501. A 4th region closes
	// the 3rd.
	retireBlocks(p, iss, isa.TL0, 100, 101, 102, 300, 500, 501, 900)
	p.Flush()
	st := p.Stats()
	if st.RegionsAdmitted < 3 {
		t.Errorf("regions admitted = %d, want >= 3", st.RegionsAdmitted)
	}
	if st.IndexInserts == 0 {
		t.Error("tagged triggers should insert into the index")
	}
}

func TestPIFReplayPrefetchesRecordedStream(t *testing.T) {
	p := New(DefaultConfig())
	iss := newFakeIssuer()
	// Record a stream: region A (100..102), region B (300..301), region C
	// (500). End with a far region to flush C into history.
	retireBlocks(p, iss, isa.TL0, 100, 101, 102, 300, 301, 500, 900, 1300)
	p.Flush()

	// Now the core fetches block 100 again (unprefetched): PIF should
	// trigger on the index hit and prefetch the recorded stream.
	iss2 := newFakeIssuer()
	p.OnAccess(prefetch.AccessEvent{Block: 100, TL: isa.TL0, Hit: false}, iss2)
	for _, b := range []isa.Block{101, 102, 300, 301, 500} {
		if !iss2.got(b) {
			t.Errorf("block %v not prefetched on replay", b)
		}
	}
	if p.Stats().Triggers != 1 {
		t.Errorf("triggers = %d, want 1", p.Stats().Triggers)
	}
	if p.LiveSABs() == 0 {
		t.Error("a SAB should be live after triggering")
	}
}

func TestPIFDoesNotTriggerOnPrefetchedFetch(t *testing.T) {
	p := New(DefaultConfig())
	iss := newFakeIssuer()
	retireBlocks(p, iss, isa.TL0, 100, 101, 300, 900)
	p.Flush()
	p.OnAccess(prefetch.AccessEvent{Block: 100, TL: isa.TL0, Hit: true, WasPrefetched: true}, iss)
	if p.Stats().Triggers != 0 {
		t.Error("prefetched fetch must not trigger a new stream")
	}
}

func TestPIFSABAdvance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SABWindow = 2 // small window so advancement must load more
	p := New(cfg)
	iss := newFakeIssuer()
	// Record a long stream of single-block regions spaced apart.
	var blocks []isa.Block
	for i := 0; i < 12; i++ {
		blocks = append(blocks, isa.Block(100+20*i))
	}
	retireBlocks(p, iss, isa.TL0, blocks...)
	p.Flush()

	iss2 := newFakeIssuer()
	p.OnAccess(prefetch.AccessEvent{Block: blocks[0], TL: isa.TL0, Hit: false}, iss2)
	// Window of 2 regions: the far tail should not be prefetched yet.
	if iss2.got(blocks[8]) {
		t.Fatal("tail prefetched before advancing — window not bounded")
	}
	// Follow the stream: accesses advance the SAB, pulling in the tail.
	for _, b := range blocks[1:9] {
		p.OnAccess(prefetch.AccessEvent{Block: b, TL: isa.TL0, Hit: true, WasPrefetched: true}, iss2)
	}
	if !iss2.got(blocks[9]) {
		t.Error("advancing through the stream should prefetch subsequent regions")
	}
	if p.Stats().Advances == 0 {
		t.Error("no SAB advances recorded")
	}
}

func TestPIFTrapLevelSeparation(t *testing.T) {
	p := New(DefaultConfig())
	iss := newFakeIssuer()
	// TL0 stream interrupted by TL1 handler blocks: with separation the
	// TL0 history must not contain handler blocks.
	p.OnRetire(trace.Record{PC: isa.Block(100).BlockBase(), TL: isa.TL0}, true, iss)
	p.OnRetire(trace.Record{PC: isa.Block(101).BlockBase(), TL: isa.TL0}, true, iss)
	p.OnRetire(trace.Record{PC: isa.Block(9000).BlockBase(), TL: isa.TL1}, true, iss)
	p.OnRetire(trace.Record{PC: isa.Block(9001).BlockBase(), TL: isa.TL1}, true, iss)
	p.OnRetire(trace.Record{PC: isa.Block(102).BlockBase(), TL: isa.TL0}, true, iss)
	p.OnRetire(trace.Record{PC: isa.Block(500).BlockBase(), TL: isa.TL0}, true, iss)
	p.Flush()

	h0 := p.HistoryFor(isa.TL0)
	for pos := uint64(0); pos < h0.Tail(); pos++ {
		r, ok := h0.At(pos)
		if ok && r.TL != isa.TL0 {
			t.Errorf("TL0 history contains %v", r)
		}
		if ok && r.Trigger >= 9000 {
			t.Errorf("handler block leaked into TL0 history: %v", r)
		}
	}
	h1 := p.HistoryFor(isa.TL1)
	if h1.Tail() == 0 {
		t.Error("TL1 history empty despite handler execution")
	}
	// Critically: 100..102 stay one region despite the interrupt split.
	r, ok := h0.At(0)
	if !ok || !r.Has(p.Config().Geometry, 102) {
		t.Errorf("interrupt fragmented the TL0 region: %v", r)
	}
}

func TestPIFMergedTrapLevels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SeparateTrapLevels = false
	p := New(cfg)
	iss := newFakeIssuer()
	p.OnRetire(trace.Record{PC: isa.Block(100).BlockBase(), TL: isa.TL0}, true, iss)
	p.OnRetire(trace.Record{PC: isa.Block(9000).BlockBase(), TL: isa.TL1}, true, iss)
	p.OnRetire(trace.Record{PC: isa.Block(101).BlockBase(), TL: isa.TL0}, true, iss)
	p.Flush()
	// All records share one history; the interrupt fragments the region.
	h := p.HistoryFor(isa.TL0)
	if h.Tail() < 3 {
		t.Errorf("merged history has %d records, want 3 (fragmented)", h.Tail())
	}
}

func TestPIFLoopCompaction(t *testing.T) {
	p := New(DefaultConfig())
	iss := newFakeIssuer()
	// A tight loop spanning two regions, iterated 50 times, then exit.
	for i := 0; i < 50; i++ {
		retireBlocks(p, iss, isa.TL0, 100, 101, 300, 301)
	}
	retireBlocks(p, iss, isa.TL0, 900)
	p.Flush()
	st := p.Stats()
	// Without temporal compaction this would admit ~100 regions; with it,
	// only the first iteration plus the tail.
	if st.RegionsAdmitted > 6 {
		t.Errorf("temporal compactor admitted %d regions for a tight loop", st.RegionsAdmitted)
	}
	if st.RegionsEmitted < 100 {
		t.Errorf("spatial compactor emitted %d regions, want ~100", st.RegionsEmitted)
	}
}

func TestPIFSameBlockCollapse(t *testing.T) {
	p := New(DefaultConfig())
	iss := newFakeIssuer()
	// 10 instructions in one block → one block-grain event.
	for i := 0; i < 10; i++ {
		p.OnRetire(trace.Record{PC: isa.Addr(0x1000).Plus(i), TL: isa.TL0}, false, iss)
	}
	if p.Stats().RetiredBlocks != 1 {
		t.Errorf("RetiredBlocks = %d, want 1", p.Stats().RetiredBlocks)
	}
}

func TestPIFUntaggedTriggerNotIndexed(t *testing.T) {
	p := New(DefaultConfig())
	iss := newFakeIssuer()
	// All fetches served by prefetch (tagged=false): regions recorded in
	// history but not indexed.
	for _, b := range []isa.Block{100, 300, 500} {
		p.OnRetire(trace.Record{PC: b.BlockBase(), TL: isa.TL0}, false, iss)
	}
	p.Flush()
	st := p.Stats()
	if st.RegionsAdmitted == 0 {
		t.Fatal("regions should still enter history")
	}
	if st.IndexInserts != 0 {
		t.Errorf("untagged triggers inserted into index: %d", st.IndexInserts)
	}
	// No trigger possible.
	p.OnAccess(prefetch.AccessEvent{Block: 100, TL: isa.TL0, Hit: false}, iss)
	if p.Stats().Triggers != 0 {
		t.Error("unindexed stream should not trigger")
	}
}

func TestPIFConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.HistoryRegions = 0
	if bad.Validate() == nil {
		t.Error("zero history accepted")
	}
	bad = DefaultConfig()
	bad.NumSABs = 0
	if bad.Validate() == nil {
		t.Error("zero SABs accepted")
	}
	bad = DefaultConfig()
	bad.TemporalDepth = -1
	if bad.Validate() == nil {
		t.Error("negative temporal depth accepted")
	}
}

func TestPIFNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{})
}

// residentIssuer reports every block resident, so SABs load their windows
// without issuing anything.
type residentIssuer struct{}

func (residentIssuer) Contains(isa.Block) bool { return true }
func (residentIssuer) Prefetch(isa.Block)      {}

// TestSABAllocateKeepsWindow: reopening a stream on a SAB reuses its
// region window's backing array, so replacing streams does not allocate
// once every SAB has held a full window.
func TestSABAllocateKeepsWindow(t *testing.T) {
	g := DefaultGeometry()
	hist := NewHistoryBuffer(256)
	for i := 0; i < 256; i++ {
		hist.Append(NewRegion(g, isa.Block(i*g.Size()), isa.TL0, true))
	}
	f := newSABFile(4, 7, g)
	var iss residentIssuer
	stream := func(pos uint64) {
		f.allocate(pos, hist, iss)
		for k := 0; k < 10; k++ { // walk the window to its full size
			f.advance(isa.Block((int(pos)+k)*g.Size()), hist, iss)
		}
	}
	for i := 0; i < 8; i++ {
		stream(uint64(i * 16))
	}
	pos := uint64(0)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 8; i++ {
			stream(pos % 200)
			pos += 16
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per 8 stream replacements, want 0", allocs)
	}
}
