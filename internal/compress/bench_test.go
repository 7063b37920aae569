package compress

import "testing"

// The size-only paths (BDISize/FPCSize/CPackSize, Engine.Compressible)
// are the compression hot path of the Monte-Carlo experiments and the
// functional framework's classification step; they must stay
// allocation-free. The full codecs allocate only their output payload.

func benchLines() [][]byte { return testLines(64) }

func BenchmarkBDISize(b *testing.B) {
	lines := benchLines()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BDISize(lines[i%len(lines)])
	}
}

func BenchmarkFPCSize(b *testing.B) {
	lines := benchLines()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FPCSize(lines[i%len(lines)])
	}
}

func BenchmarkCPackSize(b *testing.B) {
	lines := benchLines()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CPackSize(lines[i%len(lines)])
	}
}

func BenchmarkCompressible(b *testing.B) {
	e := Engine{Target: 32, EnableCPack: true}
	lines := benchLines()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Compressible(lines[i%len(lines)])
	}
}

func BenchmarkCompress(b *testing.B) {
	e := Engine{Target: 32, EnableCPack: true}
	lines := benchLines()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Compress(lines[i%len(lines)])
	}
}

// BenchmarkBitWriter is the bottom rung: one line's worth of FPC-shaped
// fields (sixteen 3-bit prefixes, each followed by 0 to 32 data bits)
// written into a fixed 70-byte buffer, as fpcAppend drives the writer.
func BenchmarkBitWriter(b *testing.B) {
	var buf [70]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := BitWriter{buf: buf[:]}
		for word := 0; word < fpcWords; word++ {
			bits := fpcDataBits[word%len(fpcDataBits)]
			w.WriteBits(uint64(word)<<uint(bits)|0x5A5A5A5A&maskBits(bits), 3+bits)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/s")
}
