// Package mdcache implements the Metadata-Cache that prior compressed-
// memory proposals keep inside the memory controller (paper §II-G, §IV-C1)
// and that Attaché replaces with COPR. It is a set-associative cache of
// 64-byte metadata lines with selectable replacement policy: LRU (the
// paper's baseline), DRRIP, and SHiP (the Fig. 16 sensitivity study).
//
// The cache only tracks presence and dirtiness — metadata content lives
// with the simulator's memory model. A miss means the controller must
// issue an install read to the metadata region; evicting a dirty victim
// adds a writeback. Those two request streams are exactly the bandwidth
// overhead Attaché eliminates (Fig. 15).
package mdcache

import (
	"fmt"

	"attache/internal/stats"
)

// LineSize is the size of one cached metadata line in bytes.
const LineSize = 64

// Policy selects the replacement algorithm.
type Policy uint8

// Supported replacement policies (Fig. 16).
const (
	LRU Policy = iota
	DRRIP
	SHiP
)

// ParsePolicy converts a configuration string into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "lru":
		return LRU, nil
	case "drrip":
		return DRRIP, nil
	case "ship":
		return SHiP, nil
	default:
		return 0, fmt.Errorf("mdcache: unknown policy %q (want lru, drrip, or ship)", s)
	}
}

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case DRRIP:
		return "drrip"
	case SHiP:
		return "ship"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Result describes the consequences of one cache access for the memory
// controller's request stream.
type Result struct {
	Hit bool
	// EvictedDirty reports that installing the new line displaced a dirty
	// victim, requiring a metadata writeback request to VictimKey's home.
	EvictedDirty bool
	// VictimKey is the key of the displaced dirty line (valid only when
	// EvictedDirty is set).
	VictimKey uint64
}

// Stats counts cache activity.
type Stats struct {
	Accesses    stats.Counter
	Hits        stats.Counter
	Installs    stats.Counter // == misses: each needs a metadata read
	DirtyEvicts stats.Counter // each needs a metadata write
}

// HitRate reports hits/accesses.
func (s *Stats) HitRate() float64 {
	if s.Accesses.Value() == 0 {
		return 0
	}
	return float64(s.Hits.Value()) / float64(s.Accesses.Value())
}

type line struct {
	valid   bool
	tag     uint64
	dirty   bool
	used    uint64 // LRU timestamp
	rrpv    uint8  // DRRIP / SHiP re-reference prediction value
	outcome bool   // SHiP: re-referenced since insertion
	sig     uint16 // SHiP: signature that inserted the line
}

// Cache is the metadata cache.
type Cache struct {
	policy Policy
	sets   int
	ways   int
	lines  []line
	tick   uint64

	// DRRIP set-dueling state.
	psel     int
	brripCtr uint32

	// SHiP signature history counter table.
	shct []uint8

	Stats Stats
}

const (
	rrpvMax    = 3
	pselMax    = 1023
	shctBits   = 14
	duelPeriod = 32 // every 32nd set is a leader set
)

// New builds a cache of the given total size. Sets are rounded down to a
// power of two.
func New(sizeBytes, ways int, policy Policy) *Cache {
	if ways <= 0 {
		panic("mdcache: ways must be positive")
	}
	nLines := sizeBytes / LineSize
	sets := nLines / ways
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	c := &Cache{
		policy: policy,
		sets:   sets,
		ways:   ways,
		lines:  make([]line, sets*ways),
		psel:   pselMax / 2,
	}
	if policy == SHiP {
		c.shct = make([]uint8, 1<<shctBits)
		for i := range c.shct {
			c.shct[i] = 1
		}
	}
	return c
}

func (c *Cache) setIndex(key uint64) int { return int(key) & (c.sets - 1) }

func (c *Cache) set(key uint64) []line {
	s := c.setIndex(key)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

func (c *Cache) signature(key uint64) uint16 {
	// Address-based signature (the SHiP paper uses the requesting PC,
	// which a metadata stream does not have; the memory-region signature
	// is the standard substitution).
	h := key * 0x9E3779B97F4A7C15
	return uint16(h>>32) & (1<<shctBits - 1)
}

// Access looks up the metadata line for key, installing it on a miss.
// write marks the metadata as modified (the line becomes dirty).
func (c *Cache) Access(key uint64, write bool) Result {
	c.Stats.Accesses.Inc()
	set := c.set(key)
	for i := range set {
		if set[i].valid && set[i].tag == key {
			c.Stats.Hits.Inc()
			c.onHit(key, &set[i])
			if write {
				set[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	// Miss: install, possibly evicting a dirty victim.
	c.Stats.Installs.Inc()
	victim := c.victim(key, set)
	res := Result{}
	if set[victim].valid {
		if c.policy == SHiP && !set[victim].outcome {
			// Dead-on-eviction: the signature that inserted it gets
			// demoted.
			if c.shct[set[victim].sig] > 0 {
				c.shct[set[victim].sig]--
			}
		}
		if set[victim].dirty {
			res.EvictedDirty = true
			res.VictimKey = set[victim].tag
			c.Stats.DirtyEvicts.Inc()
		}
	}
	c.tick++
	set[victim] = line{
		valid: true,
		tag:   key,
		dirty: write,
		used:  c.tick,
		rrpv:  c.insertRRPV(key),
		sig:   c.signature(key),
	}
	c.updateDueling(key)
	return res
}

func (c *Cache) onHit(key uint64, l *line) {
	c.tick++
	l.used = c.tick
	switch c.policy {
	case DRRIP:
		l.rrpv = 0
	case SHiP:
		l.rrpv = 0
		if !l.outcome {
			l.outcome = true
			if c.shct[l.sig] < 7 {
				c.shct[l.sig]++
			}
		}
	}
}

// victim picks the way to replace in set.
func (c *Cache) victim(key uint64, set []line) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	switch c.policy {
	case LRU:
		v := 0
		for i := range set {
			if set[i].used < set[v].used {
				v = i
			}
		}
		return v
	default: // DRRIP and SHiP share RRIP victim selection
		for {
			for i := range set {
				if set[i].rrpv == rrpvMax {
					return i
				}
			}
			for i := range set {
				set[i].rrpv++
			}
		}
	}
}

// leaderKind classifies a set for DRRIP set-dueling: 0 = SRRIP leader,
// 1 = BRRIP leader, 2 = follower.
func (c *Cache) leaderKind(key uint64) int {
	s := c.setIndex(key)
	switch s % duelPeriod {
	case 0:
		return 0
	case duelPeriod / 2:
		return 1
	default:
		return 2
	}
}

// insertRRPV chooses the insertion RRPV for a new line.
func (c *Cache) insertRRPV(key uint64) uint8 {
	switch c.policy {
	case DRRIP:
		useBRRIP := false
		switch c.leaderKind(key) {
		case 0:
			useBRRIP = false
		case 1:
			useBRRIP = true
		default:
			useBRRIP = c.psel > pselMax/2
		}
		if useBRRIP {
			// BRRIP: mostly distant (rrpvMax), occasionally long.
			c.brripCtr++
			if c.brripCtr%32 == 0 {
				return rrpvMax - 1
			}
			return rrpvMax
		}
		return rrpvMax - 1 // SRRIP insertion
	case SHiP:
		if c.shct[c.signature(key)] == 0 {
			return rrpvMax // predicted dead: distant re-reference
		}
		return rrpvMax - 1
	default:
		return 0
	}
}

// updateDueling charges a miss in a leader set against its policy.
func (c *Cache) updateDueling(key uint64) {
	if c.policy != DRRIP {
		return
	}
	switch c.leaderKind(key) {
	case 0: // SRRIP leader missed: nudge toward BRRIP
		if c.psel < pselMax {
			c.psel++
		}
	case 1: // BRRIP leader missed: nudge toward SRRIP
		if c.psel > 0 {
			c.psel--
		}
	}
}
