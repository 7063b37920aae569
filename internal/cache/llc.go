// Package cache models the shared last-level cache of Table II: 8 MB,
// 8-way, 64-byte lines, LRU, write-back write-allocate, with MSHR
// coalescing of outstanding misses. It sits between the cores and the
// memory controller and is the source of the eviction write traffic the
// memory system sees.
package cache

import (
	"attache/internal/sim"
	"attache/internal/stats"
)

// Backend is the lower level the LLC fills from and writes back to (the
// memory-controller system).
type Backend interface {
	Read(lineAddr uint64, done func(now sim.Time))
	Write(lineAddr uint64)
}

// Stats counts LLC activity.
type Stats struct {
	Accesses   stats.Counter
	Hits       stats.Counter
	Misses     stats.Counter
	Coalesced  stats.Counter // misses merged into an in-flight fill
	Writebacks stats.Counter // dirty evictions sent to memory
	Prefetches stats.Counter // next-line fills issued by the prefetcher
}

// HitRate reports hits/accesses.
func (s *Stats) HitRate() float64 {
	if s.Accesses.Value() == 0 {
		return 0
	}
	return float64(s.Hits.Value()) / float64(s.Accesses.Value())
}

type llcLine struct {
	valid bool
	tag   uint64
	dirty bool
	used  uint64
}

type mshrEntry struct {
	c       *LLC
	addr    uint64
	waiters []func(sim.Time)
	dirty   bool // a store merged into this fill

	// Bound once, when the entry is first allocated, and recycled with
	// it: issueFn sends the backend read after the lookup latency, fillFn
	// is that read's completion. Both are live from startFill until the
	// entry's fill runs.
	issueFn sim.Event
	fillFn  sim.Event
}

func (e *mshrEntry) issue(sim.Time) { e.c.backend.Read(e.addr, e.fillFn) }

func (e *mshrEntry) fill(now sim.Time) { e.c.fill(e, now) }

// LLC is the shared last-level cache.
type LLC struct {
	eng     *sim.Engine
	backend Backend
	latency sim.Time
	sets    int
	ways    int
	lines   []llcLine
	tick    uint64
	mshr    map[uint64]*mshrEntry
	// mshrFree recycles mshrEntry values (with their waiter slices and
	// bound callbacks): an entry retires into the freelist when its fill
	// completes, so the steady-state miss path allocates neither the
	// entry, nor the first waiter append, nor a closure. Purely an
	// allocation optimization — entries are single-owner and the fill
	// order is untouched.
	mshrFree []*mshrEntry
	// prefetchNextLine issues a fill for addr+1 alongside every demand
	// miss (a simple sequential prefetcher; off by default — Table II
	// does not specify one).
	prefetchNextLine bool
	Stats            Stats
}

// New builds an LLC of sizeBytes with the given associativity and lookup
// latency (CPU cycles).
func New(eng *sim.Engine, backend Backend, sizeBytes int64, ways int, latency sim.Time) *LLC {
	if ways <= 0 {
		panic("cache: ways must be positive")
	}
	n := int(sizeBytes / 64)
	sets := n / ways
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return &LLC{
		eng:     eng,
		backend: backend,
		latency: latency,
		sets:    sets,
		ways:    ways,
		lines:   make([]llcLine, sets*ways),
		mshr:    make(map[uint64]*mshrEntry),
	}
}

// EnableNextLinePrefetch turns the sequential prefetcher on or off.
func (c *LLC) EnableNextLinePrefetch(on bool) { c.prefetchNextLine = on }

// startFill takes a recycled mshrEntry (empty, clean) or allocates one,
// registers it as the in-flight fill of addr and schedules its backend
// read after the lookup latency.
func (c *LLC) startFill(addr uint64) *mshrEntry {
	var e *mshrEntry
	if n := len(c.mshrFree); n > 0 {
		e = c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
	} else {
		e = &mshrEntry{c: c}
		e.issueFn, e.fillFn = e.issue, e.fill
	}
	e.addr = addr
	c.mshr[addr] = e
	c.eng.ScheduleAfter(c.latency, e.issueFn)
	return e
}

func (c *LLC) set(addr uint64) []llcLine {
	s := int(addr) & (c.sets - 1)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

func (c *LLC) find(addr uint64) *llcLine {
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == addr {
			return &set[i]
		}
	}
	return nil
}

// Read looks up addr; done runs when data is available (after the LLC
// latency on a hit, or after the memory fill on a miss). Concurrent
// misses to the same line coalesce into one fill.
func (c *LLC) Read(addr uint64, done func(now sim.Time)) {
	c.Stats.Accesses.Inc()
	if l := c.find(addr); l != nil {
		c.Stats.Hits.Inc()
		c.tick++
		l.used = c.tick
		c.eng.ScheduleAfter(c.latency, done)
		return
	}
	c.Stats.Misses.Inc()
	if e, ok := c.mshr[addr]; ok {
		c.Stats.Coalesced.Inc()
		e.waiters = append(e.waiters, done)
		return
	}
	e := c.startFill(addr)
	e.waiters = append(e.waiters, done)
	c.maybePrefetch(addr + 1)
}

// maybePrefetch issues a prefetch fill for addr when the prefetcher is
// enabled and the line is neither resident nor already in flight.
func (c *LLC) maybePrefetch(addr uint64) {
	if !c.prefetchNextLine {
		return
	}
	if c.find(addr) != nil {
		return
	}
	if _, ok := c.mshr[addr]; ok {
		return
	}
	c.Stats.Prefetches.Inc()
	c.startFill(addr) // no waiters: fill installs silently
}

// Write performs a store to addr. Hits mark the line dirty; misses
// write-allocate by fetching the line (read-for-ownership) and install
// it dirty. Stores are posted: no completion is reported.
func (c *LLC) Write(addr uint64) {
	c.Stats.Accesses.Inc()
	if l := c.find(addr); l != nil {
		c.Stats.Hits.Inc()
		c.tick++
		l.used = c.tick
		l.dirty = true
		return
	}
	c.Stats.Misses.Inc()
	if e, ok := c.mshr[addr]; ok {
		c.Stats.Coalesced.Inc()
		e.dirty = true
		return
	}
	c.startFill(addr).dirty = true
}

// fill installs a returned line, evicting the LRU victim (writing it back
// if dirty) and releasing every coalesced waiter.
func (c *LLC) fill(e *mshrEntry, now sim.Time) {
	addr := e.addr
	delete(c.mshr, addr)

	set := c.set(addr)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.Stats.Writebacks.Inc()
		c.backend.Write(set[victim].tag)
	}
	c.tick++
	set[victim] = llcLine{valid: true, tag: addr, dirty: e.dirty, used: c.tick}
	for _, w := range e.waiters {
		w(now)
	}
	// Recycle only after the waiters ran: a waiter may re-enter the LLC
	// and take a fresh entry, but it can never still hold this one.
	for i := range e.waiters {
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
	e.dirty = false
	c.mshrFree = append(c.mshrFree, e)
}

// Prefill installs addr without generating memory traffic or statistics.
// The experiment harness uses it to warm the cache to steady state before
// measurement, standing in for the paper's 40-billion-instruction warmup.
func (c *LLC) Prefill(addr uint64, dirty bool) {
	if l := c.find(addr); l != nil {
		l.dirty = l.dirty || dirty
		return
	}
	set := c.set(addr)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	c.tick++
	set[victim] = llcLine{valid: true, tag: addr, dirty: dirty, used: c.tick}
}

// Image is a copy of what an LLC's lookups and replacement read. Lines is
// set-major; within a set the valid lines come first, least recently used
// to most, then zeros for the empty ways. A valid entry is
// tag<<2 | dirty<<1 | 1 (a line address is a byte address over 64, so the
// shift loses nothing): 8 bytes a line where the live cache spends 32.
// Use stamps and way numbers are not kept, only the order they imply, so
// two caches that behave alike from here on have equal images.
type Image struct {
	Ways  int
	Lines []uint64
}

// ImageDirty is the dirty bit of an Image entry.
const ImageDirty = 2

// Image captures the cache's contents. In-flight fills and statistics are
// not part of it.
func (c *LLC) Image() Image {
	img := Image{Ways: c.ways, Lines: make([]uint64, len(c.lines))}
	order := make([]*llcLine, 0, c.ways) // one set's valid lines, LRU first
	for s := 0; s < len(c.lines); s += c.ways {
		order = order[:0]
		for i := s; i < s+c.ways; i++ {
			l := &c.lines[i]
			if !l.valid {
				continue
			}
			at := len(order)
			order = append(order, l)
			for ; at > 0 && order[at-1].used > l.used; at-- {
				order[at] = order[at-1]
			}
			order[at] = l
		}
		for n, l := range order {
			img.Lines[s+n] = l.tag<<2 | 1
			if l.dirty {
				img.Lines[s+n] |= ImageDirty
			}
		}
	}
	return img
}

// Load replaces the cache's contents with img, which must come from a
// cache of the same geometry. Statistics and the prefetcher are untouched.
func (c *LLC) Load(img Image) {
	if img.Ways != c.ways || len(img.Lines) != len(c.lines) {
		panic("cache: image geometry does not match the cache")
	}
	for s := 0; s < len(c.lines); s += c.ways {
		for n, e := range img.Lines[s : s+c.ways] {
			c.lines[s+n] = llcLine{}
			if e&1 != 0 {
				c.lines[s+n] = llcLine{valid: true, tag: e >> 2, dirty: e&ImageDirty != 0, used: uint64(n) + 1}
			}
		}
	}
	c.tick = uint64(c.ways)
}
