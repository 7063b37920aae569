package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestDecodePackedZeros: the zeros tag followed by sub-rank padding decodes
// to an all-zero line.
func TestDecodePackedZeros(t *testing.T) {
	dst := [LineSize]byte{1}
	if err := DecodePacked(&dst, make([]byte, 30)); err != nil || dst != [LineSize]byte{} {
		t.Fatalf("zeros tag + padding: err=%v", err)
	}
}

// TestDecodePackedAgainstRealPayloads: engine payloads padded to a full
// sub-rank, as BLEM stores them, decode to the original line.
func TestDecodePackedAgainstRealPayloads(t *testing.T) {
	var dst [LineSize]byte
	e := NewEngine()
	rng := rand.New(rand.NewSource(8))
	checked := 0
	for trial := 0; trial < 3000; trial++ {
		var l []byte
		if trial%2 == 0 {
			l = genCompressibleCandidate(rng)
		} else {
			l = make([]byte, LineSize)
			for w := 0; w < 16; w++ {
				binary.LittleEndian.PutUint32(l[w*4:], uint32(rng.Intn(1<<uint(rng.Intn(20)+1))))
			}
		}
		c := e.Compress(l)
		if c.Algo == AlgoNone {
			continue
		}
		padded := make([]byte, 30)
		copy(padded, c.Pack())
		if err := DecodePacked(&dst, padded); err != nil || !bytes.Equal(dst[:], l) {
			t.Fatalf("padded %v payload does not round-trip (err %v)", c.Algo, err)
		}
		checked++
	}
	if checked < 300 {
		t.Fatalf("only %d payloads checked", checked)
	}
}

func TestDecodePackedErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(BDIRep), 0}, // truncated rep
		{byte(BDIB8D1)},   // truncated base-delta
		{7},               // BDIB2D1 tag but empty body
		{200},             // unknown tag
		{fpcTag},          // empty FPC stream
		{fpcTag, 0xFF},    // truncated FPC stream
		// A shape wider than a padded sub-rank payload.
		append([]byte{byte(BDIB8D4)}, make([]byte, 29)...),
	}
	var dst [LineSize]byte
	for i, c := range cases {
		if err := DecodePacked(&dst, c); err == nil {
			t.Errorf("case %d (% x): expected error", i, c)
		}
	}
}
