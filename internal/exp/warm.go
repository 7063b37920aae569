package exp

import (
	"slices"
	"sync"

	"attache/internal/cache"
	"attache/internal/check"
	"attache/internal/config"
	"attache/internal/trace"
)

// warmCacheBytes bounds the warm images (DESIGN.md §5) resident at once:
// 30 of Table II's geometry, so the 24 workloads of `-experiment all` all
// stay; beyond it the least recently used goes.
const warmCacheBytes = 32 << 20

// generatorBytes is an image's charge per stored generator (math/rand's
// 607-word source and the structs around it).
const generatorBytes = 5 << 10

// warmKey is exactly what the warm-up reads: the per-core profiles, the
// seed, and the LLC geometry, which also sets the warm-up's length — and
// nothing a sweep varies (Kind, Check, AccessesPerCore, LLCPrefetch,
// anything under DRAM, MDCache or Attache).
type warmKey struct {
	profiles []trace.Profile
	seed     int64
	llcBytes int64
	llcWays  int
}

func (k warmKey) equal(o warmKey) bool {
	return k.seed == o.seed && k.llcBytes == o.llcBytes && k.llcWays == o.llcWays &&
		slices.Equal(k.profiles, o.profiles)
}

// warmImage is what a warm-up leaves behind, immutable once built.
type warmImage struct {
	llc  cache.Image
	gens []*trace.Generator
}

func (w *warmImage) bytes() int64 {
	return int64(len(w.llc.Lines))*8 + int64(len(w.gens))*generatorBytes
}

type warmEntry struct {
	key  warmKey
	done chan struct{} // closed once img is final
	img  *warmImage    // the builder's to write until done closes; nil after it if the build panicked
	size int64         // img.bytes() once charged to the cache; under warmCache.mu
}

// warmCache is the bounded, single-flight store of warm images.
type warmCache struct {
	mu      sync.Mutex
	entries []*warmEntry // least recently used first; builds in flight included
	bytes   int64        // sum of the entries' sizes, at most warmCacheBytes

	builds, hits, evictions uint64 // WarmCacheStats' counts
}

// warmImages is shared by every simulation of the process: an image is a
// pure function of its key.
var warmImages warmCache

// WarmCacheStats is the warm-image cache's account of itself. Every lookup
// is a build or a hit.
type WarmCacheStats struct {
	Builds        uint64 // lookups that found nothing and ran the warm-up
	Hits          uint64 // lookups that found an image, finished or being built
	Evictions     uint64 // images dropped to make room for a newer one
	ResidentBytes int64  // what the images held now are charged
	BoundBytes    int64  // what the cache may hold
}

// WarmStats reports what the process-wide warm-image cache has done so far.
func WarmStats() WarmCacheStats { return warmImages.stats() }

func (c *warmCache) stats() WarmCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return WarmCacheStats{Builds: c.builds, Hits: c.hits, Evictions: c.evictions,
		ResidentBytes: c.bytes, BoundBytes: warmCacheBytes}
}

// get returns k's image; concurrent callers of one key wait for one build
// (built reports that this call ran it). A build that panics unwinds
// through its own caller; its waiters look again and repeat it themselves.
func (c *warmCache) get(k warmKey, build func() *warmImage) (img *warmImage, built bool) {
	for {
		c.mu.Lock()
		i := slices.IndexFunc(c.entries, func(e *warmEntry) bool { return e.key.equal(k) })
		if i < 0 {
			break
		}
		e := c.entries[i]
		c.entries = append(slices.Delete(c.entries, i, i+1), e)
		c.hits++
		c.mu.Unlock()
		<-e.done
		if e.img != nil {
			return e.img, false
		}
	}
	k.profiles = slices.Clone(k.profiles) // the caller's slice is the caller's to change
	e := &warmEntry{key: k, done: make(chan struct{})}
	c.entries = append(c.entries, e)
	c.builds++
	c.mu.Unlock()

	defer close(e.done)
	defer c.settle(e)
	e.img = build()
	return e.img, true
}

// settle ends e's build: a built image is charged and the least recently
// used make room; a failed build, or an image over the whole bound, leaves.
func (c *warmCache) settle(e *warmEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.img == nil || e.img.bytes() > warmCacheBytes {
		c.entries = slices.DeleteFunc(c.entries, func(v *warmEntry) bool { return v == e })
		return
	}
	e.size = e.img.bytes()
	c.bytes += e.size
	// e alone fits, so while the sum does not, another built entry exists.
	for i := 0; c.bytes > warmCacheBytes; {
		if v := c.entries[i]; v != e && v.size > 0 {
			c.bytes -= v.size
			c.entries = slices.Delete(c.entries, i, i+1)
			c.evictions++
		} else {
			i++
		}
	}
}

// warm runs src's next n references into the LLC without timing.
func warm(llc *cache.LLC, src trace.Source, n int64) {
	for ; n > 0; n-- {
		a := src.Next()
		llc.Prefill(a.LineAddr, a.Store)
	}
}

// warmStart brings the run's empty LLC to steady state (the paper warms
// for 40 B instructions) and returns each core's stream where the measured
// run continues. Caller-supplied Sources are warmed in place; synthetic
// generators go through the image cache, and the run that builds an image
// starts from the loaded image like any other. With checking on (audit
// non-nil) a run that did not build its image also replays the warm-up and
// records where the image departs from it; it runs from the image anyway.
func warmStart(rc RunConfig, llc *cache.LLC, audit *check.Recorder) []trace.Source {
	cpu := rc.Cfg.CPU
	perCore := 2 * cpu.LLCBytes / config.LineSize / int64(cpu.Cores)
	if rc.Sources != nil {
		for _, s := range rc.Sources {
			warm(llc, s, perCore)
		}
		return rc.Sources
	}

	cold := func() *warmImage {
		img := &warmImage{gens: make([]*trace.Generator, cpu.Cores)}
		for i := range img.gens {
			img.gens[i] = trace.NewGeneratorAt(rc.Profiles[i], rc.Seed+int64(i)*7919, uint64(i)*mixSliceLines)
			warm(llc, img.gens[i], perCore)
		}
		img.llc = llc.Image()
		return img
	}
	key := warmKey{profiles: rc.Profiles, seed: rc.Seed, llcBytes: cpu.LLCBytes, llcWays: cpu.LLCWays}
	img, built := warmImages.get(key, cold)
	if audit != nil && !built {
		auditWarmImage(audit, img, cold())
	}
	llc.Load(img.llc)
	gens := make([]trace.Source, cpu.Cores)
	for i, g := range img.gens {
		gens[i] = g.Clone()
	}
	return gens
}

// auditWarmImage records the first place a stored image differs from a
// cold replay of the same warm-up.
func auditWarmImage(rec *check.Recorder, img, cold *warmImage) {
	for i, e := range cold.llc.Lines {
		if img.llc.Lines[i] != e {
			rec.Failf(e>>2, 0, "warm image differs from a cold warm-up at LLC set %d, LRU position %d",
				i/cold.llc.Ways, i%cold.llc.Ways)
			break
		}
	}
	for i, g := range img.gens {
		if a := cold.gens[i].Next(); g.Clone().Next() != a {
			rec.Failf(a.LineAddr, 0, "warm image differs from a cold warm-up at core %d's next draw", i)
		}
	}
}
