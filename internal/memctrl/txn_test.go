package memctrl

import (
	"testing"

	"attache/internal/config"
	"attache/internal/sim"
)

var allKinds = []config.SystemKind{
	config.SystemBaseline, config.SystemIdeal, config.SystemAttache, config.SystemMDCache, config.SystemECC,
}

func evenCompressible() stubModel {
	return stubModel{compressible: func(a uint64) bool { return a%2 == 0 }}
}

// TestReentrantReadReusesRecord: a done that synchronously issues the next
// read (what LLC fill -> waiter -> Core.tick does) is handed the record
// its own read just released. Both reads must complete once, with the
// latency the second would have had issued from outside the callback.
func TestReentrantReadReusesRecord(t *testing.T) {
	const a, b = 4096, 9001
	for _, kind := range allKinds {
		// Reference: b issued from outside, at the cycle a completed.
		engR, ref := newSystem(t, kind, evenCompressible())
		wantA := readSync(t, engR, ref, a)
		wantB := readSync(t, engR, ref, b)

		eng, s := newSystem(t, kind, evenCompressible())
		var doneA, doneB []sim.Time
		s.Read(a, func(now sim.Time) {
			doneA = append(doneA, now)
			s.Read(b, func(now sim.Time) { doneB = append(doneB, now) })
		})
		drain(t, eng)

		if len(doneA) != 1 || len(doneB) != 1 {
			t.Fatalf("%v: completions = %d and %d, want one each", kind, len(doneA), len(doneB))
		}
		if doneA[0] != wantA || doneB[0] != wantB {
			t.Errorf("%v: reads finished at %d and %d, want %d and %d", kind, doneA[0], doneB[0], wantA, wantB)
		}
		if n, mean := s.Stats.ReadLatency.N(), s.Stats.ReadLatency.Value(); n != 2 || mean != float64(wantB)/2 {
			t.Errorf("%v: latency samples = %d averaging %v, want 2 summing to %d", kind, n, mean, wantB)
		}
		if len(s.txnFree) != 1 {
			t.Errorf("%v: %d records pooled after two serial reads, want the one reused", kind, len(s.txnFree))
		}
		if s.Stats != ref.Stats {
			t.Errorf("%v: stats differ from the non-re-entrant run:\n got  %+v\n want %+v", kind, s.Stats, ref.Stats)
		}
	}
}

// TestCollisionCorrectionMergesOnce: a wrong "compressed" prediction on a
// collided line needs the other half and the RA bit; the read completes
// once, when the later of the two arrives.
func TestCollisionCorrectionMergesOnce(t *testing.T) {
	probe := uint64(2000)
	m := stubModel{
		compressible: func(a uint64) bool { return a != probe },
		collides:     func(a uint64) bool { return a == probe },
	}
	eng, s := newSystem(t, config.SystemAttache, m)
	for i := uint64(0); i < 8; i++ {
		readSync(t, eng, s, probe-8+i) // same page, warms "compressible"
	}
	completions := 0
	s.Read(probe, func(sim.Time) { completions++ })
	drain(t, eng)
	if completions != 1 {
		t.Fatalf("collided, mispredicted read completed %d times, want 1", completions)
	}
	if c, ra := s.Stats.CorrectionReads.Value(), s.Stats.RAReads.Value(); c != 1 || ra != 1 {
		t.Fatalf("corrections = %d, RA reads = %d, want 1 and 1", c, ra)
	}
	if len(s.txnFree) != 1 || s.txnFree[0].done != nil {
		t.Fatalf("record not released cleanly: %d pooled", len(s.txnFree))
	}
}

// TestMDCacheMissMergesOnce: the metadata-miss read joins a data and a
// metadata request; overlapping misses each complete exactly once.
func TestMDCacheMissMergesOnce(t *testing.T) {
	eng, s := newSystem(t, config.SystemMDCache, noneCompressible())
	const n = 6
	var completions [n]int
	for i := 0; i < n; i++ {
		i := i
		s.Read(uint64(i)<<20, func(sim.Time) { completions[i]++ }) // distinct rows: all miss
	}
	drain(t, eng)
	for i, c := range completions {
		if c != 1 {
			t.Fatalf("read %d completed %d times, want 1", i, c)
		}
	}
	if s.Stats.MetaReads.Value() != n {
		t.Fatalf("metadata reads = %d, want %d (every read a miss)", s.Stats.MetaReads.Value(), n)
	}
	if len(s.txnFree) != n {
		t.Fatalf("%d records pooled after %d overlapping reads", len(s.txnFree), n)
	}
}
