package copr

// assoc is a small set-associative table with LRU replacement, shared by
// PaPR and LiPR. Values are generic; keys are page numbers.
type assoc[V any] struct {
	sets    int
	ways    int
	entries []assocEntry[V] // sets*ways, set-major
	tick    uint64
}

type assocEntry[V any] struct {
	valid bool
	key   uint64
	value V
	used  uint64
}

// assocSets is the set count of a table with capacity for at least
// `entries` items, rounded down to a power of two for cheap indexing.
func assocSets(entries, ways int) int {
	if ways <= 0 {
		panic("copr: ways must be positive")
	}
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return sets
}

// newAssoc builds a table of assocSets(entries, ways) sets.
func newAssoc[V any](entries, ways int) *assoc[V] {
	sets := assocSets(entries, ways)
	return &assoc[V]{
		sets:    sets,
		ways:    ways,
		entries: make([]assocEntry[V], sets*ways),
	}
}

func (a *assoc[V]) set(key uint64) []assocEntry[V] {
	s := int(key) & (a.sets - 1)
	return a.entries[s*a.ways : (s+1)*a.ways]
}

// lookup finds key and refreshes its LRU position.
func (a *assoc[V]) lookup(key uint64) (V, bool) {
	set := a.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			a.tick++
			set[i].used = a.tick
			return set[i].value, true
		}
	}
	var zero V
	return zero, false
}

// insert adds or updates key, evicting the LRU way when the set is full.
func (a *assoc[V]) insert(key uint64, value V) {
	set := a.set(key)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].key == key {
			victim = i
			break
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	a.tick++
	set[victim] = assocEntry[V]{valid: true, key: key, value: value, used: a.tick}
}
