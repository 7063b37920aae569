// Package sim provides the discrete-event simulation kernel that drives the
// Attaché memory-system model.
//
// Time is measured in CPU cycles (int64). Components schedule closures at
// absolute times; the Engine executes them in (time, insertion-order) order,
// which makes every simulation fully deterministic for a given seed.
//
// The event queue is a calendar (DESIGN.md §5): a wheel of one FIFO per
// cycle for the next horizon cycles, where scheduling appends and stepping
// pops with no comparison, plus a binary heap that only stores the rare
// event scheduled further ahead until the wheel reaches it.
package sim

import "math/bits"

// Time is an absolute simulation time in CPU cycles.
type Time = int64

// Event is a callback scheduled to run at a specific time.
type Event func(now Time)

type scheduledEvent struct {
	at  Time
	seq uint64
	fn  Event
}

// eventQueue is a hand-rolled binary min-heap ordered by (at, seq). It is
// the engine's overflow store only: an event lives here from a Schedule
// horizon or more cycles ahead until the clock comes within horizon of it,
// and no nearer event ever touches it.
// container/heap is deliberately not used: its interface methods box every
// scheduledEvent into an `any` on Push and Pop.
type eventQueue []scheduledEvent

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev scheduledEvent) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() scheduledEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = scheduledEvent{} // release the Event so the GC can collect it
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && h.less(r, l) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top
}

// horizon is how many cycles ahead of the clock the wheel reaches, a power
// of two. Every schedule of Table II's configuration lands within it (the
// farthest measured is 3 495 cycles ahead; DESIGN.md §5 has the histogram).
const (
	horizon  = 4096
	slotMask = horizon - 1
)

// node is one event on the wheel: a link of its cycle's FIFO, or of the
// free list. Index 0 of the arena is the nil link.
type node struct {
	fn   Event
	next int32
}

// slot is the FIFO of the events of one cycle, as arena indexes.
type slot struct{ head, tail int32 }

// Engine is a deterministic discrete-event simulator.
//
// Events less than horizon cycles ahead of the clock sit on the wheel:
// slot at&slotMask holds cycle at's events in insertion order, and occupied
// has a bit per non-empty slot. Events further ahead wait in overflow, all
// of them at least horizon cycles ahead of now; advance moves each onto the
// wheel as soon as the clock comes within horizon of it, which is before
// anything else can be scheduled for its cycle — so a slot's FIFO is its
// cycle's events in ascending seq.
//
// The zero value is not ready to use; call NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	nsteps   uint64
	onWheel  int
	free     int32 // head of the LIFO free list through nodes
	nodes    []node
	overflow eventQueue
	occupied [horizon / 64]uint64
	slots    [horizon]slot
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{nodes: make([]node, 1, 64)}
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Scheduled reports how many events have ever been enqueued. With an
// empty queue, Scheduled() == Steps() iff every scheduled event fired
// exactly once — the event-conservation invariant the check layer
// asserts after each run.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.onWheel + len(e.overflow) }

// Schedule enqueues fn to run at absolute time at. Scheduling in the past
// (at < Now) is clamped to the current time: the event runs "now", after any
// events already queued for the current time.
func (e *Engine) Schedule(at Time, fn Event) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	if at-e.now >= horizon {
		e.overflow.push(scheduledEvent{at: at, seq: e.seq, fn: fn})
		return
	}
	e.place(at, fn)
}

// ScheduleAfter enqueues fn to run delay cycles from now.
func (e *Engine) ScheduleAfter(delay Time, fn Event) {
	e.Schedule(e.now+delay, fn)
}

// place appends fn to the FIFO of cycle at, which is within the wheel.
func (e *Engine) place(at Time, fn Event) {
	n := e.free
	if n != 0 {
		e.free = e.nodes[n].next
		e.nodes[n] = node{fn: fn}
	} else {
		n = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{fn: fn})
	}
	i := at & slotMask
	s := &e.slots[i]
	if s.head == 0 {
		s.head = n
		e.occupied[i>>6] |= 1 << (i & 63)
	} else {
		e.nodes[s.tail].next = n
	}
	s.tail = n
	e.onWheel++
}

// next reports the time of the earliest pending event without changing
// anything; the queue must not be empty. Whatever is on the wheel is
// earlier than anything in overflow.
func (e *Engine) next() Time {
	if e.onWheel == 0 {
		return e.overflow[0].at
	}
	from := e.now & slotMask
	w := from >> 6
	word := e.occupied[w] &^ (1<<(from&63) - 1)
	for word == 0 { // ends: a slot is occupied, at worst one below from in w
		w = (w + 1) & (horizon/64 - 1)
		word = e.occupied[w]
	}
	i := w<<6 | Time(bits.TrailingZeros64(word))
	return e.now + (i-from)&slotMask
}

// advance moves the clock to the earliest pending event and then brings
// every overflow event the wheel now reaches onto it, in (at, seq) order.
func (e *Engine) advance() {
	e.now = e.next()
	for len(e.overflow) > 0 && e.overflow[0].at-e.now < horizon {
		ev := e.overflow.pop()
		e.place(ev.at, ev.fn)
	}
}

// Step executes the single earliest event. It reports false when the queue
// is empty.
func (e *Engine) Step() bool {
	if e.slots[e.now&slotMask].head == 0 {
		if e.Pending() == 0 {
			return false
		}
		e.advance()
	}
	i := e.now & slotMask
	s := &e.slots[i]
	n := s.head
	fn := e.nodes[n].fn
	s.head = e.nodes[n].next
	if s.head == 0 {
		e.occupied[i>>6] &^= 1 << (i & 63)
	}
	e.nodes[n] = node{next: e.free} // drop the Event so the GC can collect it
	e.free = n
	e.onWheel--
	e.nsteps++
	fn(e.now)
	return true
}

// Run executes events until the queue is empty or the clock would pass
// until (exclusive). It returns the number of events executed. Pass a
// negative until to run until the queue drains.
func (e *Engine) Run(until Time) uint64 {
	var n uint64
	for e.Pending() > 0 {
		if until >= 0 && e.next() >= until {
			break
		}
		e.Step()
		n++
	}
	return n
}

// RunUntilDone executes events until the queue is empty, with a safety cap
// on the number of events to guard against runaway simulations. It reports
// whether the queue drained before the cap.
func (e *Engine) RunUntilDone(maxEvents uint64) bool {
	for i := uint64(0); i < maxEvents; i++ {
		if !e.Step() {
			return true
		}
	}
	return e.Pending() == 0
}
