package prefetch

import (
	"repro/internal/isa"
	"repro/internal/trace"
)

// TIFSConfig sizes the TIFS engine.
type TIFSConfig struct {
	// HistoryBlocks bounds the miss-history buffer; 0 means unlimited
	// (the paper's idealized competitive comparison, Figure 10 left).
	HistoryBlocks int
	// Streams is the number of concurrent stream buffers.
	Streams int
	// Lookahead is the replay window depth in blocks.
	Lookahead int
}

// DefaultTIFSConfig mirrors the paper's TIFS setup scaled to this model.
func DefaultTIFSConfig() TIFSConfig {
	return TIFSConfig{HistoryBlocks: 0, Streams: 4, Lookahead: 12}
}

// TIFS implements Temporal Instruction Fetch Streaming [Ferdman et al.,
// MICRO 2008]: it logs the sequence of L1-I miss addresses into a history
// buffer with an index of most-recent occurrences, and on a miss whose
// address has been seen before it replays the recorded miss stream through
// stream buffers, prefetching the upcoming blocks.
//
// Because TIFS trains on the *miss* stream, its history inherits the cache
// filtering and wrong-path injection the paper analyzes in Section 2; this
// is the mechanism PIF's retire-order recording removes.
type TIFS struct {
	cfg     TIFSConfig
	history []isa.Block
	base    int
	index   blockIndex // block -> position of its latest miss
	streams []tifsStream
	clock   uint64
}

type tifsStream struct {
	pos  int
	live bool
	lru  uint64
}

// NewTIFS builds a TIFS engine.
func NewTIFS(cfg TIFSConfig) *TIFS {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = 1
	}
	return &TIFS{
		cfg:     cfg,
		streams: make([]tifsStream, cfg.Streams),
	}
}

// Name implements Prefetcher.
func (t *TIFS) Name() string { return "TIFS" }

// HistoryLen returns the retained miss-history length (for tests).
func (t *TIFS) HistoryLen() int { return len(t.history) }

func (t *TIFS) at(pos int) (isa.Block, bool) {
	i := pos - t.base
	if i < 0 || i >= len(t.history) {
		return 0, false
	}
	return t.history[i], true
}

func (t *TIFS) end() int { return t.base + len(t.history) }

// OnAccess implements Prefetcher. Misses are recorded into the history and
// trigger replay; all demand accesses advance matching streams.
func (t *TIFS) OnAccess(ev AccessEvent, iss Issuer) {
	t.clock++
	b := ev.Block

	// Advance any stream expecting this access.
	advanced := false
	for i := range t.streams {
		s := &t.streams[i]
		if !s.live {
			continue
		}
		for k := 0; k < t.cfg.Lookahead; k++ {
			hb, ok := t.at(s.pos + k)
			if !ok {
				break
			}
			if hb == b {
				s.pos += k + 1
				s.lru = t.clock
				if s.pos >= t.end() {
					s.live = false
				} else {
					t.issueWindow(s, iss)
				}
				advanced = true
				break
			}
		}
		if advanced {
			break
		}
	}

	if ev.Hit {
		return
	}

	// Record the miss and, if this miss address heads a recorded stream,
	// start replaying it.
	if !advanced {
		if pos, ok := t.index.get(b); ok {
			t.open(pos+1, iss)
		}
	}
	t.index.put(b, t.end())
	t.history = append(t.history, b)
	if t.cfg.HistoryBlocks > 0 && len(t.history) > t.cfg.HistoryBlocks {
		drop := len(t.history) - t.cfg.HistoryBlocks
		t.history = t.history[drop:]
		t.base += drop
	}
}

// open allocates a stream buffer at history position pos (LRU replace).
func (t *TIFS) open(pos int, iss Issuer) {
	if pos >= t.end() {
		return
	}
	victim := 0
	for i := range t.streams {
		if !t.streams[i].live {
			victim = i
			break
		}
		if t.streams[i].lru < t.streams[victim].lru {
			victim = i
		}
	}
	t.streams[victim] = tifsStream{pos: pos, live: true, lru: t.clock}
	t.issueWindow(&t.streams[victim], iss)
}

// issueWindow prefetches the lookahead window of a stream.
func (t *TIFS) issueWindow(s *tifsStream, iss Issuer) {
	for k := 0; k < t.cfg.Lookahead; k++ {
		hb, ok := t.at(s.pos + k)
		if !ok {
			return
		}
		if !iss.Contains(hb) {
			iss.Prefetch(hb)
		}
	}
}

// OnRetire implements Prefetcher (TIFS does not observe retirement).
func (t *TIFS) OnRetire(trace.Record, bool, Issuer) {}
