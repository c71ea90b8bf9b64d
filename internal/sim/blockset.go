package sim

import "repro/internal/isa"

// blockSet is a set of isa.Block numbers kept as a paged bitset: one bit
// per block in pages of 2^15 blocks, a directory from page number to
// page, and a one-entry cache of the last page touched. Instruction
// footprints are a few dense segments, so lookups almost always hit the
// cached page and never hash; the directory keeps any uint64 block
// representable without reserving the whole space.
type blockSet struct {
	pages  map[uint64]*blockPage
	lastNo uint64
	last   *blockPage
}

const (
	blockPageShift = 15
	blockPageMask  = 1<<blockPageShift - 1
)

type blockPage [(1 << blockPageShift) / 64]uint64

// page returns the page holding block numbers no<<blockPageShift onward,
// creating it when create is set; without create it returns nil for a
// page never written.
func (s *blockSet) page(no uint64, create bool) *blockPage {
	if s.last != nil && s.lastNo == no {
		return s.last
	}
	p := s.pages[no]
	if p == nil {
		if !create {
			return nil
		}
		if s.pages == nil {
			s.pages = make(map[uint64]*blockPage)
		}
		p = new(blockPage)
		s.pages[no] = p
	}
	s.last, s.lastNo = p, no
	return p
}

// has reports whether b is in the set.
func (s *blockSet) has(b isa.Block) bool {
	p := s.page(uint64(b)>>blockPageShift, false)
	off := uint64(b) & blockPageMask
	return p != nil && p[off>>6]&(1<<(off&63)) != 0
}

// add inserts b.
func (s *blockSet) add(b isa.Block) {
	p := s.page(uint64(b)>>blockPageShift, true)
	off := uint64(b) & blockPageMask
	p[off>>6] |= 1 << (off & 63)
}
