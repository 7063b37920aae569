package core

// OccupiedSlots reports how many line-table slots m occupies, lent ones
// included: the sum of its segments' books.
func OccupiedSlots(m *Memory) int {
	t, n := &m.lines, 0
	for i := 0; i < len(t.dir); i += 1 << (t.depth - t.dir[i].books.depth) {
		n += t.dir[i].books.n
	}
	return n
}
