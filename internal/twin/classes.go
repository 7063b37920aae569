package twin

import (
	"sync"

	"attache/internal/compress"
	"attache/internal/workload"
)

// ClassProfile is the per-codec size distribution of one payload class:
// the probability a line of that class compresses under the engine's
// codecs. It is measured
// once per process by running the class's deterministic line builder
// through the real compression engine — the twin never hardcodes codec
// behavior, so a codec change recalibrates the model automatically.
type ClassProfile struct {
	// PCompress is the probability a write of this class stores
	// compressed (fits one sub-rank block).
	PCompress float64
}

// classProbeSamples is the number of (addr, version) points probed per
// class. The builders are pure and their compressibility depends only
// on coarse address structure (e.g. parity for the mixed class), so a
// small deterministic sweep measures the exact class mix.
const classProbeSamples = 256

var (
	classOnce     sync.Once
	classProfiles map[workload.PayloadKind]ClassProfile
)

// Classes returns the per-class compression profiles, probing the
// compression engine on first use.
func Classes() map[workload.PayloadKind]ClassProfile {
	classOnce.Do(func() {
		eng := compress.NewEngine()
		classProfiles = make(map[workload.PayloadKind]ClassProfile, 5)
		for _, kind := range workload.Kinds() {
			var compressed float64
			for i := 0; i < classProbeSamples; i++ {
				// Spread addresses and versions so parity- and
				// version-dependent builders are sampled evenly.
				line := workload.PayloadLine(kind, uint64(i)*3+1, uint64(i)/2)
				if algo, _ := eng.Choose(line); algo != compress.AlgoNone {
					compressed++
				}
			}
			classProfiles[kind] = ClassProfile{PCompress: compressed / classProbeSamples}
		}
	})
	return classProfiles
}
