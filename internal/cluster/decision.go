package cluster

import "sync"

// decisionAddrCap bounds how many addresses one Decision records. Big
// batches keep their first 32 addresses — enough to see where any
// realistic batch was headed while bounding ring memory.
const decisionAddrCap = 32

// Decision is one recorded routing outcome: which instance(s) a batch
// went to, and the inputs (loads, addresses) the router saw.
type Decision struct {
	Seq         uint64   `json:"seq"`
	Tenant      string   `json:"tenant,omitempty"`
	Class       Class    `json:"class"`
	Ops         int      `json:"ops"`
	Addrs       []uint64 `json:"addrs"`        // first decisionAddrCap op addresses
	Loads       []int64  `json:"loads"`        // per-instance inflight at decision time
	PerInstance []int    `json:"per_instance"` // ops sent to each instance
	Chosen      int      `json:"chosen"`       // instance serving most ops (ties: lowest)
}

// decisionLog is a fixed-size ring of recent Decisions.
type decisionLog struct {
	mu   sync.Mutex
	ring []Decision
	next int
	seq  uint64
	full bool
}

func newDecisionLog(size int) *decisionLog {
	if size <= 0 {
		return nil
	}
	return &decisionLog{ring: make([]Decision, size)}
}

func (l *decisionLog) add(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	d.Seq = l.seq
	l.ring[l.next] = d
	l.next = (l.next + 1) % len(l.ring)
	if l.next == 0 {
		l.full = true
	}
	l.mu.Unlock()
}

// recent returns up to n most-recent decisions, oldest first.
func (l *decisionLog) recent(n int) []Decision {
	if l == nil || n <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	size := l.next
	if l.full {
		size = len(l.ring)
	}
	if n > size {
		n = size
	}
	out := make([]Decision, 0, n)
	start := l.next - n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	return out
}
