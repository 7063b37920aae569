package core

import "testing"

// The Framework rung of the ladder: one Store or Load per iteration for
// each stored form (see hotPathClasses), between the codec benchmarks in
// internal/compress and core.Memory's in internal/shard.

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
