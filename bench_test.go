// Benchmark harness: one testing.B sub-benchmark per table and figure of
// the paper's evaluation (DESIGN.md §3 maps ids to artifacts), plus
// ablation benches for the design choices DESIGN.md §6 calls out.
//
// Each experiment bench runs end-to-end at a reduced scale and prints the
// same rows/series the paper reports (visible with -v). For paper-scale
// numbers use:
//
//	go run ./cmd/attachesim -experiment all -scale 2
package attache_test

import (
	"fmt"
	"testing"

	"attache"
	"attache/internal/blem"
	"attache/internal/compress"
	"attache/internal/config"
	"attache/internal/dram"
	"attache/internal/exp"
	"attache/internal/scramble"
	"attache/internal/sim"
	"attache/internal/trace"

	"math/rand"
)

// benchScale keeps every figure bench in single-digit seconds.
const benchScale = 0.15

// BenchmarkExperiments regenerates every table and figure of the
// evaluation end to end, one sub-benchmark per experiment id, printing
// the table once (visible with -v): go test -bench 'Experiments/fig12' -v .
func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab, err := e.Run(exp.NewHarness(benchScale))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("\n%s", tab.String())
				}
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §6) ------------------------------------

// BenchmarkAblationCIDWidth sweeps the CID width and reports the measured
// collision rate and Replacement Area traffic — the trade Table I frames.
func BenchmarkAblationCIDWidth(b *testing.B) {
	for _, bits := range []int{7, 11, 13, 14, 15} {
		b.Run(fmt.Sprintf("cid%d", bits), func(b *testing.B) {
			scr := scramble.New(0x5EED)
			line := make([]byte, 64)
			for i := 0; i < b.N; i++ {
				e := blem.NewEngine(bits, 99)
				const n = 200000
				collisions := 0
				for j := 0; j < n; j++ {
					for k := range line {
						line[k] = 0
					}
					scr.Apply(uint64(j), line)
					if _, c := e.StoreUncompressed(uint64(j), line); c {
						collisions++
					}
				}
				if i == 0 {
					b.Logf("cid=%d collisions=%d/%d (analytic %.5f%%)",
						bits, collisions, n, blem.CollisionProbability(bits)*100)
				}
			}
		})
	}
}

// BenchmarkAblationScrambling quantifies why BLEM needs the scrambler:
// with adversarial all-zero data and a zero CID, every unscrambled store
// collides; scrambling restores the 2^-15 rate.
func BenchmarkAblationScrambling(b *testing.B) {
	line := make([]byte, 64)
	scr := scramble.New(0xD00D)
	for i := 0; i < b.N; i++ {
		collideScrambled, collideRaw := 0, 0
		const n = 100000
		eS := blem.NewEngine(15, 4) // engine CID is whatever the seed gives
		eR := blem.NewEngine(15, 4)
		// Adversarial content: the first two bytes of every line equal
		// the CID pattern — the header of a compressed block.
		hdr, _ := eR.PackCompressed(nil)
		for j := 0; j < n; j++ {
			for k := range line {
				line[k] = 0
			}
			line[0], line[1] = hdr[0], hdr[1]
			if _, c := eR.StoreUncompressed(uint64(j), line); c {
				collideRaw++
			}
			scr.Apply(uint64(j), line)
			if _, c := eS.StoreUncompressed(uint64(j), line); c {
				collideScrambled++
			}
		}
		if i == 0 {
			b.Logf("adversarial data: raw collisions=%d/%d, scrambled=%d/%d",
				collideRaw, n, collideScrambled, n)
		}
	}
}

// BenchmarkAblationWriteWatermark sweeps the write-drain watermark and
// reports runtime on a write-heavy workload.
func BenchmarkAblationWriteWatermark(b *testing.B) {
	prof, err := trace.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	for _, hw := range []int{8, 24, 48, 60} {
		b.Run(fmt.Sprintf("high%d", hw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.DRAM.WriteHighWater = hw
				cfg.DRAM.WriteLowWater = hw / 3
				m, err := exp.Run(exp.RunConfig{
					Cfg: cfg, Kind: config.SystemAttache,
					Profiles:        exp.RateMode(prof, cfg.CPU.Cores),
					AccessesPerCore: 3000, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("highwater=%d cycles=%d latency=%.0f", hw, m.Cycles, m.AvgReadLatency)
				}
			}
		})
	}
}

// BenchmarkAblationSubRankPlacement compares the paper's row-parity
// compressed-line placement against this implementation's row+column
// parity on a streaming workload (see memctrl.subRankFor).
func BenchmarkAblationSubRankPlacement(b *testing.B) {
	// Directly measurable at the channel level: a stream of compressed
	// (32-byte) reads whose sub-rank is chosen by either policy.
	for _, policy := range []string{"row-parity", "row+col-parity"} {
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				ch := dram.NewChannel(eng, config.Default(), 0)
				var last sim.Time
				const n = 1024
				for j := 0; j < n; j++ {
					row, col := 1+j/128, j%128
					parity := row % 2
					if policy == "row+col-parity" {
						parity = (row + col) % 2
					}
					mask := dram.SubRank0
					if parity == 0 {
						mask = dram.SubRank1
					}
					ch.Submit(&dram.Request{Loc: dram.Location{Row: row, Col: col}, SubRanks: mask,
						Done: func(now sim.Time) { last = now }})
				}
				eng.RunUntilDone(1e7)
				if i == 0 {
					b.Logf("%s: %d compressed reads in %d cycles", policy, n, last)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// memory references per wall-second for the full 8-core Attaché stack.
// The seed is fixed so that every measured iteration restores the warm
// image the first calibration run left, as all but the first run of a
// workload in a sweep do: allocs/op, which the gate pins, is then the same
// at any b.N. With a seed per iteration the mix of cold runs and restores
// followed b.N and -count (1 115 to 1 140 allocs/op over one -count=5), and
// cold runs alone differ by seed (1 135 to 1 160). exp's BenchmarkRunWarm/cold
// is the run that warms its own LLC.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, err := trace.ByName("zeusmp")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := exp.Run(exp.RunConfig{
			Cfg: cfg, Kind: config.SystemAttache,
			Profiles:        exp.RateMode(prof, cfg.CPU.Cores),
			AccessesPerCore: 4000, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = m
	}
	b.ReportMetric(float64(4000*cfg.CPU.Cores*b.N), "memrefs/op-total")
}

// BenchmarkFrameworkStoreLoad measures the functional path: full
// compress + scramble + BLEM store and predict + classify + decompress
// load per line.
func BenchmarkFrameworkStoreLoad(b *testing.B) {
	mem, err := attache.NewMemory()
	if err != nil {
		b.Fatal(err)
	}
	line := make([]byte, 64)
	for i := 0; i < 8; i++ {
		line[i*8] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i % 8192)
		if err := mem.Write(addr, line); err != nil {
			b.Fatal(err)
		}
		if _, err := mem.Read(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFAW shows the effect of enabling the DDR4 four-activate
// window (not specified in Table II, so disabled by default) on a
// row-miss-heavy workload.
func BenchmarkAblationFAW(b *testing.B) {
	prof, err := trace.ByName("RAND")
	if err != nil {
		b.Fatal(err)
	}
	for _, faw := range []int64{0, 28} {
		b.Run(fmt.Sprintf("tfaw%d", faw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.DRAM.TFAW = faw
				m, err := exp.Run(exp.RunConfig{
					Cfg: cfg, Kind: config.SystemAttache,
					Profiles:        exp.RateMode(prof, cfg.CPU.Cores),
					AccessesPerCore: 2500, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("tFAW=%d cycles=%d latency=%.0f", faw, m.Cycles, m.AvgReadLatency)
				}
			}
		})
	}
}

// BenchmarkAblationExtendedEngine compares the paper's BDI+FPC engine
// against the extended engine with the CPack dictionary codec on each
// workload's data (compressibility gained per benchmark).
func BenchmarkAblationExtendedEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		std := 0
		ext := 0
		const samples = 2000
		scratch := make([]byte, trace.LineSize)
		for _, p := range trace.Catalog() {
			dm := p.DataModel()
			se := benchStdEngine()
			ee := benchExtEngine()
			for a := uint64(0); a < samples; a++ {
				line := dm.LineInto(a, scratch)
				if se.Compressible(line) {
					std++
				}
				if ee.Compressible(line) {
					ext++
				}
			}
		}
		// Dictionary-style data (few distinct words per line): the
		// extension's target case.
		rng := rand.New(rand.NewSource(9))
		dictStd, dictExt := 0, 0
		se, ee := benchStdEngine(), benchExtEngine()
		line := make([]byte, 64)
		for t := 0; t < samples; t++ {
			vocab := [3]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
			for w := 0; w < 16; w++ {
				v := vocab[rng.Intn(3)]
				line[w*4] = byte(v)
				line[w*4+1] = byte(v >> 8)
				line[w*4+2] = byte(v >> 16)
				line[w*4+3] = byte(v >> 24)
			}
			if se.Compressible(line) {
				dictStd++
			}
			if ee.Compressible(line) {
				dictExt++
			}
		}
		if i == 0 {
			total := samples * len(trace.Catalog())
			b.Logf("catalog data: bdi+fpc %d/%d, +cpack %d/%d", std, total, ext, total)
			b.Logf("dictionary data: bdi+fpc %d/%d, +cpack %d/%d", dictStd, samples, dictExt, samples)
		}
	}
}

func benchStdEngine() *compress.Engine { return compress.NewEngine() }

func benchExtEngine() *compress.Engine { return compress.NewExtendedEngine() }

// BenchmarkAblationLLCPrefetch compares the systems with and without the
// LLC's next-line prefetcher on a strided workload — prefetching raises
// memory pressure, which compression then relieves.
func BenchmarkAblationLLCPrefetch(b *testing.B) {
	prof, err := trace.ByName("leslie3d")
	if err != nil {
		b.Fatal(err)
	}
	for _, pf := range []bool{false, true} {
		b.Run(fmt.Sprintf("prefetch=%v", pf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.CPU.LLCPrefetch = pf
				var cyc [2]int64
				for j, k := range []config.SystemKind{config.SystemBaseline, config.SystemAttache} {
					m, err := exp.Run(exp.RunConfig{
						Cfg: cfg, Kind: k,
						Profiles:        exp.RateMode(prof, cfg.CPU.Cores),
						AccessesPerCore: 2500, Seed: 42,
					})
					if err != nil {
						b.Fatal(err)
					}
					cyc[j] = int64(m.Cycles)
				}
				if i == 0 {
					b.Logf("prefetch=%v: baseline=%d attache=%d speedup=%.3f",
						pf, cyc[0], cyc[1], float64(cyc[0])/float64(cyc[1]))
				}
			}
		})
	}
}

// BenchmarkSchedulerAblation compares FR-FCFS against strict FCFS and
// open-page against closed-page row policies (DESIGN.md §7).
func BenchmarkSchedulerAblation(b *testing.B) {
	prof, err := trace.ByName("zeusmp")
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name         string
		fcfs, closed bool
	}{
		{"frfcfs-open", false, false},
		{"fcfs-open", true, false},
		{"frfcfs-closed", false, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.DRAM.SchedFCFS = v.fcfs
				cfg.DRAM.ClosedPage = v.closed
				m, err := exp.Run(exp.RunConfig{
					Cfg: cfg, Kind: config.SystemAttache,
					Profiles:        exp.RateMode(prof, cfg.CPU.Cores),
					AccessesPerCore: 2500, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s: cycles=%d latency=%.0f", v.name, m.Cycles, m.AvgReadLatency)
				}
			}
		})
	}
}
