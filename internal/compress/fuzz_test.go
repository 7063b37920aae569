package compress

import (
	"bytes"
	"testing"
)

// Fuzz targets: `go test` runs the seed corpus; `go test -fuzz=Fuzz...`
// explores further. Every target asserts the codec invariants — exact
// round trips for valid inputs, graceful errors (never panics) for
// arbitrary ones.

func fuzzSeedLines(f *testing.F) {
	f.Helper()
	f.Add(make([]byte, LineSize))
	rep := bytes.Repeat([]byte{0xAB, 0xCD}, LineSize/2)
	f.Add(rep)
	seq := make([]byte, LineSize)
	for i := range seq {
		seq[i] = byte(i)
	}
	f.Add(seq)
}

func FuzzBDIRoundTrip(f *testing.F) {
	fuzzSeedLines(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != LineSize {
			return
		}
		enc, ok := BDICompress(data)
		if !ok {
			return
		}
		dec, err := BDIDecompress(enc)
		if err != nil {
			t.Fatalf("compressed output failed to decode: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatal("round trip mismatch")
		}
	})
}

func FuzzFPCRoundTrip(f *testing.F) {
	fuzzSeedLines(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != LineSize {
			return
		}
		enc, _ := FPCCompress(data)
		dec, err := FPCDecompress(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatal("round trip mismatch")
		}
	})
}

func FuzzCPackRoundTrip(f *testing.F) {
	fuzzSeedLines(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != LineSize {
			return
		}
		enc, ok := CPackCompress(data)
		if !ok {
			return
		}
		dec, err := CPackDecompress(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzCPackSizeAgreement asserts the allocation-free size estimator
// agrees exactly with the real encoder on every line: CPackSize must
// report the encoded length when CPack wins and LineSize when it does
// not. The simulator's timing model classifies lines with CPackSize, so
// any disagreement would make timing diverge from the functional flow.
func FuzzCPackSizeAgreement(f *testing.F) {
	fuzzSeedLines(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != LineSize {
			return
		}
		fuzzSizeAgreement(t, "CPack", CPackCompress, CPackSize, data)
	})
}

// FuzzBDISizeAgreement and FuzzFPCSizeAgreement assert the same for the
// other two codecs. Engine.Choose picks the winner from the three size
// passes before any encoder runs, so a size that disagreed with its
// encoder would select a payload that overflows the sub-rank block or
// miss one that fits.
func FuzzBDISizeAgreement(f *testing.F) {
	fuzzSeedLines(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != LineSize {
			return
		}
		fuzzSizeAgreement(t, "BDI", BDICompress, BDISize, data)
	})
}

func FuzzFPCSizeAgreement(f *testing.F) {
	fuzzSeedLines(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != LineSize {
			return
		}
		fuzzSizeAgreement(t, "FPC", FPCCompress, FPCSize, data)
	})
}

func fuzzSizeAgreement(t *testing.T, name string, compress func([]byte) ([]byte, bool), size func([]byte) int, data []byte) {
	enc, ok := compress(data)
	got := size(data)
	if ok {
		if got != len(enc) {
			t.Fatalf("%sSize=%d but encoder produced %d bytes", name, got, len(enc))
		}
		if got >= LineSize {
			t.Fatalf("%s encoder claimed a win at %d bytes", name, got)
		}
	} else if got != LineSize {
		t.Fatalf("%sSize=%d for a line the encoder rejects, want %d", name, got, LineSize)
	}
}

// FuzzEngineCompressMatchesReference holds the size-first chooser and the
// append-style encoders to the run-every-encoder reference, for both
// engine configurations.
func FuzzEngineCompressMatchesReference(f *testing.F) {
	fuzzSeedLines(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != LineSize {
			return
		}
		checkCompressMatchesReference(t, NewEngine(), data)
		checkCompressMatchesReference(t, NewExtendedEngine(), data)
	})
}

// FuzzEngineTargetMatchesReference fuzzes the target beside the line: the
// BDI planner's limit and the bounds handed to the FPC and CPack size
// passes all derive from it, and each must stop exactly where the
// reference's run-everything-then-compare selection would have turned the
// codec down. (A second target because a corpus is tied to its signature.)
func FuzzEngineTargetMatchesReference(f *testing.F) {
	for i, line := range edgeLines() {
		f.Add(line, uint8(boundaryTargets[i%len(boundaryTargets)]))
	}
	f.Fuzz(func(t *testing.T, data []byte, target uint8) {
		if len(data) != LineSize {
			return
		}
		checkCompressMatchesReference(t, &Engine{Target: int(target)}, data)
		checkCompressMatchesReference(t, &Engine{Target: int(target), EnableCPack: true}, data)
	})
}

// FuzzDecodersNeverPanic feeds arbitrary bytes to every decoder: errors
// are fine, panics are not (a corrupted DRAM block must not crash the
// controller model).
func FuzzDecodersNeverPanic(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{8, 0xFF})
	f.Add([]byte{9, 0xFF, 0x00})
	f.Add([]byte{200})
	f.Fuzz(func(t *testing.T, data []byte) {
		BDIDecompress(data)
		FPCDecompress(data)
		CPackDecompress(data)
		var dst [LineSize]byte
		DecodePacked(&dst, data)
		if u, err := Unpack(data); err == nil {
			NewExtendedEngine().Decompress(u)
		}
	})
}
