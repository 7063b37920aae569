package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The Framework rung of the ladder: one Store or Load per iteration for
// each stored form (see hotPathClasses), between the codec benchmarks in
// internal/compress and the Memory rung at the end of this file.

func BenchmarkFrameworkStore(b *testing.B) {
	for _, c := range hotPathClasses(b) {
		b.Run(c.name, func(b *testing.B) {
			f, err := New(c.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := f.Store(c.addr, c.line); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

func BenchmarkFrameworkLoad(b *testing.B) {
	for _, c := range hotPathClasses(b) {
		b.Run(c.name, func(b *testing.B) {
			f, err := New(c.opts)
			if err != nil {
				b.Fatal(err)
			}
			st, _, err := f.Store(c.addr, c.line)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := f.Load(c.addr, st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

// The Memory rung: Framework.Store/LoadInto plus the line table, over a
// table of 32 Ki lines (about 6 MB, past a core's private caches; the
// reads use 1 Mi lines, past a last-level cache too) addressed in a
// scattered order, payloads cycling through the stored forms of the
// default configuration. internal/shard's rungs sit on top of it.

const benchTableLines = 32 << 10

// defaultLines returns a line of each stored form the default
// configuration has.
func defaultLines(b *testing.B) [][]byte {
	var lines [][]byte
	for _, c := range hotPathClasses(b) {
		if c.opts == DefaultOptions() {
			lines = append(lines, c.line)
		}
	}
	return lines
}

// benchMemory fills a memory with n lines, n a power of two.
func benchMemory(b *testing.B, n int) (*Memory, [][]byte) {
	b.Helper()
	lines := defaultLines(b)
	m, err := NewMemory(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for a := 0; a < n; a++ {
		if err := m.Write(uint64(a), lines[a%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
	return m, lines
}

// benchAddr scatters iteration i over a table of n lines, n a power of two.
func benchAddr(i, n int) uint64 { return uint64(i) * 0x9E3779B1 % uint64(n) }

// BenchmarkMemoryWrite writes one line per iteration: over the line
// stored there (overwrite); after taking it out, as a tier's demotion
// follows a promotion (churn); or handing back the form taken out, as a
// clean demotion does (handback).
func BenchmarkMemoryWrite(b *testing.B) {
	for _, name := range []string{"overwrite", "churn", "handback"} {
		b.Run(name, func(b *testing.B) {
			m, lines := benchMemory(b, benchTableLines)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr, data := benchAddr(i, benchTableLines), lines[(i+1)%len(lines)]
				switch name {
				case "churn":
					m.Take(addr)
				case "handback": // the line keeps its bytes, so the form taken is its own
					data = lines[addr%uint64(len(lines))]
					if st, _ := m.Take(addr); !st.Collision {
						m.WriteStored(addr, (*[LineSize]byte)(data), st)
						continue
					}
				}
				if err := m.Write(addr, data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

// BenchmarkMemoryReadInto reads one line per iteration, in scattered
// order, from a table of 1 Mi lines — about 200 MB, past a server's
// last-level cache, as a large shard's is. serial reads each line on its
// own; batch32 first prefetches the next 32 addresses, as a shard does a
// task's (Memory.Prefetch), and reports the same-run serial/batch32 time
// ratio: what overlapping the line-table misses saves a read
// below the shard.
func BenchmarkMemoryReadInto(b *testing.B) {
	const lines = 1 << 20
	m, _ := benchMemory(b, lines)
	var dst [LineSize]byte
	var serialNs float64 // the serial arm's time per read, from its last run
	for _, batch := range []int{1, 32} {
		name := "serial"
		if batch > 1 {
			name = fmt.Sprintf("batch%d", batch)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if batch > 1 && i%batch == 0 {
					for j := i; j < i+batch; j++ {
						m.Prefetch(benchAddr(j, lines))
					}
				}
				if err := m.ReadInto(&dst, benchAddr(i, lines)); err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(1e9/ns, "lines/s")
			if batch == 1 {
				serialNs = ns
			} else if serialNs > 0 {
				b.ReportMetric(serialNs/ns, "serial/"+name)
			}
		})
	}
}

// BenchmarkMemoryTable fills a memory with 1 Mi lines, a large shard's
// worth, and reports what the line table costs besides its speed: the
// slowest single Write of the fill (worst-write-ns: a table that grows by
// rehashing everything stalls one Write for all of it), one full GC cycle
// over the filled memory (gc-ns: what the collector marks), and the live
// heap the fill added per line (heap-B/line). Run it with -benchtime 1x.
func BenchmarkMemoryTable(b *testing.B) {
	const lines = 1 << 20
	payloads := defaultLines(b)
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m, err := NewMemory(DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		var worst time.Duration
		for a := 0; a < lines; a++ {
			t0 := time.Now()
			if err := m.Write(uint64(a), payloads[a%len(payloads)]); err != nil {
				b.Fatal(err)
			}
			worst = max(worst, time.Since(t0))
		}
		t0 := time.Now()
		runtime.GC()
		gc := time.Since(t0)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		b.ReportMetric(float64(worst.Nanoseconds()), "worst-write-ns")
		b.ReportMetric(float64(gc.Nanoseconds()), "gc-ns")
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/lines, "heap-B/line")
	}
}
