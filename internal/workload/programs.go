package workload

import "sync"

// Programs is a single-flight cache of program images, keyed by the full
// Profile value (two profiles that share a Name but differ in any field
// get distinct images). The first Get of a profile builds its image;
// concurrent Gets of the same profile wait for that build, and every
// later Get returns the same image. Images are immutable after
// construction, so callers may share them across concurrent jobs.
//
// Entries are never evicted: the cache holds one image per distinct
// profile passed to Get, so its owner bounds it by the profiles it
// accepts. The zero value is ready to use; a Programs must not be
// copied after first use.
type Programs struct {
	mu sync.Mutex
	m  map[Profile]*programSlot
}

// programSlot is one profile's build: the once guards the fields.
type programSlot struct {
	once sync.Once
	prog *Program
	err  error
}

// Get returns the program image for p, building it on first use. A
// build error is kept like an image and returned to every caller: an
// image is a deterministic function of its profile, so a rebuild would
// fail the same way.
func (c *Programs) Get(p Profile) (*Program, error) {
	c.mu.Lock()
	s, ok := c.m[p]
	if !ok {
		if c.m == nil {
			c.m = make(map[Profile]*programSlot)
		}
		s = &programSlot{}
		c.m[p] = s
	}
	c.mu.Unlock()
	s.once.Do(func() { s.prog, s.err = BuildProgram(p) })
	return s.prog, s.err
}

// Len returns the number of distinct profiles the cache has built (or
// is building) an image for.
func (c *Programs) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
