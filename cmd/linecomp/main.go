// Command linecomp analyzes real data with the Attaché compression stack:
// it splits input into 64-byte cachelines, runs BDI and FPC over each,
// and reports the Fig.-4-style compressibility profile plus what an
// Attaché memory system would achieve on this data (sub-rank transfers
// saved, CID collision count through the real scrambler).
//
// Usage:
//
//	linecomp file1 [file2 ...]
//	some-producer | linecomp
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"attache/internal/blem"
	"attache/internal/compress"
	"attache/internal/scramble"
)

type report struct {
	lines       int
	bdiWins     int
	fpcWins     int
	incompress  int
	zeroLines   int
	sizeBuckets [9]int // <=1,2-4,5-8,9-12,13-16,17-22,23-30,31-63,64
	bytesRaw    int64
	bytesPacked int64
	collisions  int
}

func bucketFor(size int) int {
	switch {
	case size <= 1:
		return 0
	case size <= 4:
		return 1
	case size <= 8:
		return 2
	case size <= 12:
		return 3
	case size <= 16:
		return 4
	case size <= 22:
		return 5
	case size <= 30:
		return 6
	case size <= 63:
		return 7
	default:
		return 8
	}
}

var bucketNames = [9]string{"1B", "2-4B", "5-8B", "9-12B", "13-16B", "17-22B", "23-30B", "31-63B", "64B"}

func analyze(r io.Reader, eng *compress.Engine, bl *blem.Engine, scr *scramble.Scrambler, rep *report) error {
	r = bufio.NewReaderSize(r, 1<<16) // not one read call per 64-byte line
	buf := make([]byte, compress.LineSize)
	addr := uint64(rep.lines)
	for {
		n, err := io.ReadFull(r, buf)
		if err == io.EOF {
			return nil
		}
		if err == io.ErrUnexpectedEOF {
			for i := n; i < len(buf); i++ {
				buf[i] = 0 // zero-pad the tail line
			}
		} else if err != nil {
			return err
		}
		rep.lines++
		rep.bytesRaw += compress.LineSize

		// The stored form, built as Framework.Store builds it: only the
		// winning encoder runs, into a stack buffer.
		var image [compress.LineSize]byte
		packed, algo := eng.AppendPacked(image[:0], buf)
		size := len(packed)
		switch algo {
		case compress.AlgoBDI:
			rep.bdiWins++
			if packed[0] == byte(compress.BDIZeros) {
				rep.zeroLines++
			}
			rep.bytesPacked += 32 // one sub-rank block
		case compress.AlgoFPC:
			rep.fpcWins++
			rep.bytesPacked += 32
		default:
			size = compress.LineSize
			rep.incompress++
			rep.bytesPacked += 64
			// Uncompressed lines go through scramble + BLEM: count the
			// real CID collisions this data would produce.
			copy(image[:], buf)
			scr.Apply(addr, image[:])
			if _, collision := bl.StoreUncompressed(addr, image[:]); collision {
				rep.collisions++
			}
		}
		rep.sizeBuckets[bucketFor(size)]++
		addr++
		if err == io.ErrUnexpectedEOF {
			return nil
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its streams and exit code handed in, so a test can
// drive the whole command in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("linecomp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: linecomp [file ...]   (reads stdin when no files given)")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	eng := compress.NewEngine()
	bl := blem.NewEngine(15, 0x41747461)
	scr := scramble.New(0xC0FFEE)
	rep := &report{}

	if fs.NArg() == 0 {
		if err := analyze(stdin, eng, bl, scr, rep); err != nil {
			fmt.Fprintf(stderr, "linecomp: stdin: %v\n", err)
			return 1
		}
	}
	for _, name := range fs.Args() {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintf(stderr, "linecomp: %v\n", err)
			return 1
		}
		err = analyze(f, eng, bl, scr, rep)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "linecomp: %s: %v\n", name, err)
			return 1
		}
	}

	if rep.lines == 0 {
		fmt.Fprintln(stdout, "no input")
		return 0
	}
	pct := func(n int) float64 { return float64(n) / float64(rep.lines) * 100 }
	comp := rep.bdiWins + rep.fpcWins
	fmt.Fprintf(stdout, "lines analyzed:            %d (%d bytes)\n", rep.lines, rep.bytesRaw)
	fmt.Fprintf(stdout, "compressible to <=30B:     %d (%.1f%%)   [paper Fig. 4 avg: ~50%%]\n", comp, pct(comp))
	fmt.Fprintf(stdout, "  won by BDI:              %d (%.1f%%), of which all-zero: %d\n", rep.bdiWins, pct(rep.bdiWins), rep.zeroLines)
	fmt.Fprintf(stdout, "  won by FPC:              %d (%.1f%%)\n", rep.fpcWins, pct(rep.fpcWins))
	fmt.Fprintf(stdout, "incompressible:            %d (%.1f%%)\n", rep.incompress, pct(rep.incompress))
	fmt.Fprintf(stdout, "CID collisions (15-bit):   %d (expected ~%.2f)\n",
		rep.collisions, float64(rep.incompress)/32768)
	fmt.Fprintf(stdout, "sub-rank bytes if stored:  %d (%.1f%% of raw; 50%% is the floor)\n",
		rep.bytesPacked, float64(rep.bytesPacked)/float64(rep.bytesRaw)*100)
	fmt.Fprintln(stdout, "\npacked size distribution:")
	for i, n := range rep.sizeBuckets {
		if n == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-7s %7d (%5.1f%%) %s\n", bucketNames[i], n, pct(n), strings.Repeat("#", int(pct(n)/2)))
	}
	return 0
}
