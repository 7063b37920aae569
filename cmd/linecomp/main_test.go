package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// syntheticInput is a few lines of each class the report tells apart and a
// short tail: 3 zero lines (1 B), 2 of one repeated 8-byte value (9 B),
// 2 of small deltas from an 8-byte base (B8D1, 18 B), 2 of zero, 4-bit and
// upper-halfword words (FPC, 17 + 1 tag B), 4 of random bytes, and 10
// 0xFF bytes, which zero-padded are two -1 words, one 0x0000FFFF and
// thirteen zero words: FPC in 9 + 1 B, under B8D1's 18.
func syntheticInput() []byte {
	var in []byte
	in = append(in, make([]byte, 3*64)...)
	in = append(in, bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 2*8)...)
	for i := 0; i < 2*8; i++ {
		in = binary.LittleEndian.AppendUint64(in, 0xABCD000000000000+uint64(i))
	}
	for i := 0; i < 2; i++ {
		for _, w := range [16]uint32{0, 5, 0x12340000, 0, 0xFFFFFFFD, 0x56780000, 0, 7, 0, 0x2BCD0000, 0, 3, 0x7EEF0000, 0, 0, 1} {
			in = binary.LittleEndian.AppendUint32(in, w)
		}
	}
	hostile := make([]byte, 4*64)
	rand.New(rand.NewSource(22)).Read(hostile)
	in = append(in, hostile...)
	return append(in, bytes.Repeat([]byte{0xFF}, 10)...)
}

const syntheticReport = `lines analyzed:            14 (896 bytes)
compressible to <=30B:     10 (71.4%)   [paper Fig. 4 avg: ~50%]
  won by BDI:              7 (50.0%), of which all-zero: 3
  won by FPC:              3 (21.4%)
incompressible:            4 (28.6%)
CID collisions (15-bit):   0 (expected ~0.00)
sub-rank bytes if stored:  576 (64.3% of raw; 50% is the floor)

packed size distribution:
  1B            3 ( 21.4%) ##########
  9-12B         3 ( 21.4%) ##########
  17-22B        4 ( 28.6%) ##############
  64B           4 ( 28.6%) ##############
`

func TestRun(t *testing.T) {
	in := syntheticInput()
	dir := t.TempDir()
	first, second := filepath.Join(dir, "first"), filepath.Join(dir, "second")
	for name, part := range map[string][]byte{first: in[:7*64], second: in[7*64:]} {
		if err := os.WriteFile(name, part, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name       string
		args       []string
		stdin      []byte
		code       int
		out, errOf string
	}{
		{name: "stdin", stdin: in, out: syntheticReport},
		{name: "files", args: []string{first, second}, out: syntheticReport}, // line addresses run on across files
		{name: "empty", out: "no input\n"},
		{name: "missing-file", args: []string{filepath.Join(dir, "absent")}, code: 1, errOf: "linecomp: open "},
		{name: "bad-flag", args: []string{"-x"}, code: 2, errOf: "usage: linecomp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, bytes.NewReader(tc.stdin), &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if stdout.String() != tc.out {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), tc.out)
			}
			if !strings.Contains(stderr.String(), tc.errOf) || (tc.errOf == "") != (stderr.Len() == 0) {
				t.Errorf("stderr %q, want it to contain %q", stderr.String(), tc.errOf)
			}
		})
	}
}
