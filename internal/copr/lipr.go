package copr

// linePredictor is LiPR: a set-associative table indexed by page number,
// one prediction bit per cacheline of the page (paper §IV-C3). It
// captures pages whose lines have mixed compressibility, which PaPR's
// single counter cannot express.
//
// Each entry carries two 64-bit vectors: pred holds the per-line
// predictions, seen marks lines whose compressibility was directly
// observed. The paper's "proactive neighbor update" (applied when PaPR
// deems the page homogeneous) rewrites only the unobserved bits, so
// learned per-line state is never wiped by a transient page-level signal.
type linePredictor struct {
	table *assoc[liprEntry]
}

type liprEntry struct {
	pred uint64
	seen uint64
}

// liprEntryBits approximates the SRAM cost of one LiPR entry: the
// prediction and observed vectors plus a page tag (~16 bits) and valid
// bit.
const liprEntryBits = 145

// liprEntries is how many entries a storage budget buys.
func liprEntries(budgetBytes int) int { return budgetBytes * 8 / liprEntryBits }

func newLinePredictor(budgetBytes, ways int) *linePredictor {
	return &linePredictor{table: newAssoc[liprEntry](liprEntries(budgetBytes), ways)}
}

// lookup reports the page's prediction and observed vectors, if present.
func (l *linePredictor) lookup(page uint64) (pred, seen uint64, ok bool) {
	e, ok := l.table.lookup(page)
	return e.pred, e.seen, ok
}

// train records an observation for one line of a page, allocating the
// entry if needed. homogeneous applies the proactive neighbor update to
// the unobserved lines; fallback seeds a brand-new entry's unobserved
// bits when no page-level signal exists.
func (l *linePredictor) train(page uint64, lineIdx int, compressed, homogeneous, fallback bool) {
	e, ok := l.table.lookup(page)
	if !ok {
		if fallback {
			e.pred = ^uint64(0)
		}
	}
	bit := uint64(1) << uint(lineIdx)
	if homogeneous {
		// Unobserved neighbors follow the observed line (paper §IV-C3).
		if compressed {
			e.pred |= ^e.seen
		} else {
			e.pred &^= ^e.seen
		}
	}
	if compressed {
		e.pred |= bit
	} else {
		e.pred &^= bit
	}
	e.seen |= bit
	l.table.insert(page, e)
}
