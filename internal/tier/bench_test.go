package tier

import (
	"math/rand"
	"testing"

	"attache/internal/core"
)

// The tier rung of the ladder, between core.Memory's rung and the shard's:
// one op per iteration over 16 Ki far lines, in the tiered-hotset
// scenario's shape. Four ops in five come from a hot-set client: Zipf(1.4)
// over 16-line pages, one write in seven, each payload zero, compressible
// or random. The fifth comes from a sequential scanner that reads and
// writes compressible lines in turn. Three arms run the same stream:
// untiered (a bare core.Memory), near0 (a tier of zero capacity, which
// must cost about nothing) and hotset (a 1 Ki-line lru near tier, where
// every far access is a promotion and a demotion).
// The same-run ratios near0/untiered and hotset/untiered are what the
// tier layer costs, and carry across hosts where nanoseconds do not.

const (
	benchFarLines  = 16 << 10
	benchNearLines = 1 << 10
	benchOps       = 64 << 10
)

// lineMemory is what both a core.Memory and a tier Memory serve.
type lineMemory interface {
	ReadInto(dst *[LineSize]byte, lineAddr uint64) error
	Write(lineAddr uint64, data []byte) error
}

type benchOp struct {
	addr    uint64
	write   bool
	payload int
}

// hotsetStream draws benchOps ops. The hot set's page ranks are
// scattered over the address space, so the hot pages are not neighbours.
func hotsetStream() []benchOp {
	const pageLines, pages = 16, benchFarLines / 16
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.4, 1, pages-1)
	ops := make([]benchOp, benchOps)
	var scan uint64
	for i := range ops {
		if rng.Intn(5) == 0 {
			ops[i] = benchOp{addr: scan % benchFarLines, write: scan%2 == 1, payload: 1}
			scan++
			continue
		}
		page := zipf.Uint64() * 0x9E3779B1 % pages
		ops[i] = benchOp{
			addr:    page*pageLines + uint64(rng.Intn(pageLines)),
			write:   rng.Intn(7) == 0,
			payload: rng.Intn(3),
		}
	}
	return ops
}

// benchPayloads returns a zero, a compressible and a random line.
func benchPayloads() [3][]byte {
	random := make([]byte, LineSize)
	rand.New(rand.NewSource(2)).Read(random)
	return [3][]byte{make([]byte, LineSize), line(3), random}
}

func BenchmarkTierHotset(b *testing.B) {
	ops, payloads := hotsetStream(), benchPayloads()
	build := map[string]func() (lineMemory, error){
		"untiered": func() (lineMemory, error) { return core.NewMemory(core.DefaultOptions()) },
		"near0":    func() (lineMemory, error) { return benchTier(0) },
		"hotset":   func() (lineMemory, error) { return benchTier(benchNearLines) },
	}
	var untieredNs float64 // the untiered arm's time per op, from its last run
	for _, arm := range []string{"untiered", "near0", "hotset"} {
		b.Run(arm, func(b *testing.B) {
			m, err := build[arm]()
			if err != nil {
				b.Fatal(err)
			}
			for a := uint64(0); a < benchFarLines; a++ {
				if err := m.Write(a, payloads[a%3]); err != nil {
					b.Fatal(err)
				}
			}
			var dst [LineSize]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := &ops[i%benchOps]
				if op.write {
					err = m.Write(op.addr, payloads[op.payload])
				} else {
					err = m.ReadInto(&dst, op.addr)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(1e9/ns, "ops/s")
			if arm == "untiered" {
				untieredNs = ns
			} else if untieredNs > 0 {
				b.ReportMetric(ns/untieredNs, arm+"/untiered")
			}
		})
	}
}

func benchTier(near int64) (*Memory, error) {
	far, err := core.NewMemory(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return NewMemory(Config{NearLines: near, Policy: PolicyLRU}, far)
}
