// Quickstart: store and load cachelines through the Attaché framework and
// watch the bandwidth accounting.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"attache"
)

func main() {
	// Functional options over DefaultOptions; attache.WithOptions(o)
	// takes a whole Options struct.
	mem, err := attache.NewMemory(attache.WithSeed(0x41747461))
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	const lines = 4096

	// Half the data is "array-like" (a common base plus small deltas —
	// exactly what BDI compresses); the other half is random.
	for addr := uint64(0); addr < lines; addr++ {
		line := make([]byte, attache.LineSize)
		if addr%2 == 0 {
			base := uint64(0x7F0000000000) + addr*4096
			for w := 0; w < 8; w++ {
				binary.LittleEndian.PutUint64(line[w*8:], base+uint64(rng.Intn(512)))
			}
		} else {
			rng.Read(line)
		}
		if err := mem.Write(addr, line); err != nil {
			log.Fatal(err)
		}
	}

	// Read everything back twice: the first pass trains COPR, the second
	// enjoys it.
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < lines; addr++ {
			if _, err := mem.Read(addr); err != nil {
				log.Fatal(err)
			}
		}
	}

	st := mem.StatsSnapshot()
	fmt.Println("Attaché quickstart")
	fmt.Printf("  lines stored:          %d\n", st.Lines)
	fmt.Printf("  compressed lines:      %d (%.1f%%)\n",
		st.CompressedLines, st.CompressedLineRatio()*100)
	fmt.Printf("  reads / writes:        %d / %d\n", st.Reads, st.Writes)
	fmt.Printf("  32B blocks moved:      %d (uncompressed system would move %d)\n",
		st.BlocksRead+st.BlocksWritten, 2*(st.Reads+st.Writes))
	fmt.Printf("  bandwidth savings:     %.1f%%\n", st.BandwidthSavings()*100)
	fmt.Printf("  COPR accuracy:         %.1f%%\n", st.PredictionAccuracy*100)
	fmt.Printf("  mispredictions:        %d\n", st.Mispredictions)
	fmt.Printf("  replacement-area uses: %d (CID collisions)\n", st.RAAccesses)
	fmt.Printf("  SRAM overhead:         %d KB\n", mem.Framework().StorageOverheadBytes()>>10)
}
