package copr

// pagePredictor is PaPR: a set-associative table of 2-bit saturating
// counters indexed by page number (paper §IV-C3). Counter >= 2 predicts
// the page's lines compressible.
type pagePredictor struct {
	table *assoc[uint8]
}

// paprEntryBits approximates the SRAM cost of one PaPR entry: a 2-bit
// counter plus a page tag (~16 bits after set indexing) and valid bit.
const paprEntryBits = 19

// paprEntries is how many entries a storage budget buys.
func paprEntries(budgetBytes int) int { return budgetBytes * 8 / paprEntryBits }

func newPagePredictor(budgetBytes, ways int) *pagePredictor {
	return &pagePredictor{table: newAssoc[uint8](paprEntries(budgetBytes), ways)}
}

// lookup reports the counter for page, if present.
func (p *pagePredictor) lookup(page uint64) (uint8, bool) {
	return p.table.lookup(page)
}

// train adjusts an existing entry toward the observation and returns the
// new counter value. Calling train for an absent page is a no-op that
// returns 0; use insert to allocate.
func (p *pagePredictor) train(page uint64, compressed bool) uint8 {
	c, ok := p.table.lookup(page)
	if !ok {
		return 0
	}
	if compressed {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.table.insert(page, c)
	return c
}

// insert allocates (or overwrites) the page's counter.
func (p *pagePredictor) insert(page uint64, counter uint8) {
	if counter > 3 {
		counter = 3
	}
	p.table.insert(page, counter)
}
