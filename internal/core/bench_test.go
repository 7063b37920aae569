package core

import "testing"

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
// table of 32 Ki lines — far past the caches, as a served shard's is —
// addressed in a scattered order, payloads cycling through the stored forms
// of the default configuration. internal/shard's rungs sit on top of it.

const benchTableLines = 32 << 10

func benchMemory(b *testing.B) (*Memory, [][]byte) {
	b.Helper()
	var lines [][]byte
	for _, c := range hotPathClasses(b) {
		if c.opts == DefaultOptions() {
			lines = append(lines, c.line)
		}
	}
	m, err := NewMemory(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for a := 0; a < benchTableLines; a++ {
		if err := m.Write(uint64(a), lines[a%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
	return m, lines
}

// benchAddr scatters iteration i over the table.
func benchAddr(i int) uint64 { return uint64(i) * 0x9E3779B1 % benchTableLines }

func BenchmarkMemoryWrite(b *testing.B) {
	for _, churn := range []bool{false, true} {
		name := "overwrite"
		if churn {
			name = "churn" // Delete then Write: a tier's demotion after a promotion
		}
		b.Run(name, func(b *testing.B) {
			m, lines := benchMemory(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if churn {
					m.Delete(benchAddr(i))
				}
				if err := m.Write(benchAddr(i), lines[(i+1)%len(lines)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}

func BenchmarkMemoryReadInto(b *testing.B) {
	m, _ := benchMemory(b)
	var dst [LineSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ReadInto(&dst, benchAddr(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}
