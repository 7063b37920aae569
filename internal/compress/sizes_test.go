package compress

import (
	"math/rand"
	"testing"
)

// testLines yields a mix of adversarial and random lines covering every
// codec's encode classes.
func testLines(n int) [][]byte {
	rng := rand.New(rand.NewSource(17))
	lines := make([][]byte, 0, n+6)
	zero := make([]byte, LineSize)
	lines = append(lines, zero)
	rep := make([]byte, LineSize)
	for i := range rep {
		rep[i] = byte(0xAB >> uint(i%2))
	}
	lines = append(lines, rep)
	for k := 0; k < n; k++ {
		line := make([]byte, LineSize)
		switch k % 4 {
		case 0: // random bytes: incompressible
			rng.Read(line)
		case 1: // small deltas from a shared base
			base := rng.Uint64()
			for i := 0; i < LineSize; i += 8 {
				v := base + uint64(rng.Intn(200))
				for j := 0; j < 8; j++ {
					line[i+j] = byte(v >> uint(8*j))
				}
			}
		case 2: // small sign-extended words
			for i := 0; i < LineSize; i += 4 {
				line[i] = byte(rng.Intn(128))
			}
		default: // few distinct words: dictionary-friendly
			vocab := [2]uint32{rng.Uint32(), rng.Uint32()}
			for i := 0; i < LineSize; i += 4 {
				v := vocab[rng.Intn(2)]
				line[i], line[i+1], line[i+2], line[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
		}
		lines = append(lines, line)
	}
	return lines
}

// TestSizeOnlyPathsMatchCodecs pins the allocation-free size paths to the
// real encoders: BDISize/FPCSize/CPackSize must report exactly the length
// the corresponding Compress function produces.
func TestSizeOnlyPathsMatchCodecs(t *testing.T) {
	for i, line := range testLines(400) {
		if enc, ok := BDICompress(line); ok {
			if got := BDISize(line); got != len(enc) {
				t.Fatalf("line %d: BDISize=%d, BDICompress produced %d bytes", i, got, len(enc))
			}
		} else if got := BDISize(line); got != LineSize {
			t.Fatalf("line %d: BDISize=%d for BDI-incompressible line", i, got)
		}
		if enc, ok := FPCCompress(line); ok {
			if got := FPCSize(line); got != len(enc) {
				t.Fatalf("line %d: FPCSize=%d, FPCCompress produced %d bytes", i, got, len(enc))
			}
		} else if got := FPCSize(line); got != LineSize {
			t.Fatalf("line %d: FPCSize=%d for FPC-incompressible line", i, got)
		}
		if enc, ok := CPackCompress(line); ok {
			if got := CPackSize(line); got != len(enc) {
				t.Fatalf("line %d: CPackSize=%d, CPackCompress produced %d bytes", i, got, len(enc))
			}
		} else if got := CPackSize(line); got != LineSize {
			t.Fatalf("line %d: CPackSize=%d for CPack-incompressible line", i, got)
		}
	}
}

// TestCompressibleMatchesCompress pins the size-only Compressible predicate
// to the chooser and to the Compress selection for both engine
// configurations.
func TestCompressibleMatchesCompress(t *testing.T) {
	for _, e := range []*Engine{NewEngine(), NewExtendedEngine()} {
		for i, line := range testLines(400) {
			want := e.Compress(line).Algo != AlgoNone
			if got := e.Compressible(line); got != want {
				t.Fatalf("engine cpack=%v line %d: Compressible=%v, Compress says %v",
					e.EnableCPack, i, got, want)
			}
			if algo, _ := e.Choose(line); (algo != AlgoNone) != want {
				t.Fatalf("engine cpack=%v line %d: Choose=%v, Compress says compressible=%v",
					e.EnableCPack, i, algo, want)
			}
		}
	}
}

// TestCompressedSizeMatchesPack pins the size the allocation-free Choose
// reports against the packed byte string Compress produces.
func TestCompressedSizeMatchesPack(t *testing.T) {
	e := NewExtendedEngine()
	for i, line := range testLines(200) {
		c := e.Compress(line)
		if algo, size := e.Choose(line); algo != c.Algo || size != len(c.Pack()) {
			t.Fatalf("line %d: Choose = %v/%d, Compress packed %v/%d", i, algo, size, c.Algo, len(c.Pack()))
		}
	}
}
