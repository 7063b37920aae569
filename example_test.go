package attache_test

import (
	"encoding/binary"
	"fmt"

	"attache"
)

// ExampleMemory demonstrates the compressed-memory container: write a
// cacheline of array-like data, read it back, and inspect the traffic.
func ExampleMemory() {
	mem, err := attache.NewMemory()
	if err != nil {
		panic(err)
	}
	line := make([]byte, attache.LineSize)
	for w := 0; w < 8; w++ {
		binary.LittleEndian.PutUint64(line[w*8:], 0x1000_0000+uint64(w)*8)
	}
	if err := mem.Write(42, line); err != nil {
		panic(err)
	}
	back, err := mem.Read(42)
	if err != nil {
		panic(err)
	}
	snap := mem.StatsSnapshot()
	fmt.Println("round trip ok:", binary.LittleEndian.Uint64(back) == 0x1000_0000)
	fmt.Println("compressed lines:", snap.CompressedLines)
	fmt.Println("blocks written:", snap.BlocksWritten, "(an uncompressed system writes 2)")
	// Output:
	// round trip ok: true
	// compressed lines: 1
	// blocks written: 1 (an uncompressed system writes 2)
}

// ExampleFramework shows the controller-level flow: store produces the
// physical sub-rank image, load reconstructs the data and reports the
// access trace the paper's evaluation counts.
func ExampleFramework() {
	f, err := attache.New()
	if err != nil {
		panic(err)
	}
	zero := make([]byte, attache.LineSize) // an all-zero line: maximally compressible
	stored, tr, err := f.Store(7, zero)
	if err != nil {
		panic(err)
	}
	fmt.Println("stored compressed:", stored.Compressed)
	fmt.Println("sub-rank blocks touched:", tr.BlocksTouched)
	data, _, err := f.Load(7, stored)
	if err != nil {
		panic(err)
	}
	fmt.Println("loaded bytes equal:", string(data) == string(zero))
	// Output:
	// stored compressed: true
	// sub-rank blocks touched: 1
	// loaded bytes equal: true
}
