package check

import (
	"strings"
	"testing"

	"attache/internal/copr"
	"attache/internal/core"
	"attache/internal/sim"
	"attache/internal/trace"
)

// shadowed is the slice of the Attaché controller the oracle shadows: the
// data model's compressibility as ground truth and a COPR predictor
// trained in the specified order (writes train, reads predict then
// update), each step reported to the oracle as memctrl reports it.
type shadowed struct {
	o    *Oracle
	rec  *Recorder
	dm   *trace.DataModel
	copr *copr.Predictor
}

func newShadowed(t *testing.T) *shadowed {
	t.Helper()
	rec, dm := &Recorder{}, trace.NewDataModel(7, 0.5, 0.8)
	o, err := NewOracle(rec, dm, 15, 1, copr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &shadowed{o: o, rec: rec, dm: dm, copr: copr.New(copr.DefaultConfig())}
}

func (s *shadowed) write(lineAddr uint64, now sim.Time) {
	s.o.OnWrite(lineAddr, s.dm.Compressible(lineAddr), now)
	s.copr.Train(lineAddr*core.LineSize, s.dm.Compressible(lineAddr))
}

func (s *shadowed) read(lineAddr uint64, now sim.Time) {
	predicted, _ := s.copr.Predict(lineAddr * core.LineSize)
	actual := s.dm.Compressible(lineAddr)
	s.o.OnReadIssue(lineAddr, predicted, actual, now)
	s.copr.Update(lineAddr*core.LineSize, actual)
	s.o.OnReadComplete(lineAddr, actual, now)
}

// flipStoredBit flips one bit of the oracle's stored Attaché image of
// lineAddr — block 0 carries the BLEM header in its first two bytes.
func (s *shadowed) flipStoredBit(t *testing.T, lineAddr uint64, block, bit int) {
	t.Helper()
	st, ok := s.o.stored[lineAddr]
	if !ok {
		t.Fatal("injection found no stored line")
	}
	st.Blocks[block][bit/8] ^= 1 << uint(bit%8)
	s.o.stored[lineAddr] = st
}

// TestShadowedTrafficClean is the control for the mutations below: the
// same driver without a flipped bit reports nothing.
func TestShadowedTrafficClean(t *testing.T) {
	s := newShadowed(t)
	for i := uint64(0); i < 400; i++ {
		if addr := 1000 + i%128; i%3 == 0 {
			s.write(addr, sim.Time(i))
		} else {
			s.read(addr, sim.Time(i))
		}
	}
	s.o.Finish(400)
	if err := s.rec.Err(); err != nil {
		t.Fatalf("clean traffic flagged: %v", err)
	}
}

// TestMutationHeaderBitFlip proves the oracle has teeth: corrupting one
// bit of a stored line's header-bearing block must make the next read
// fail with the read's (address, cycle).
func TestMutationHeaderBitFlip(t *testing.T) {
	s := newShadowed(t)
	const addr = 5000
	s.write(addr, 100)
	if err := s.rec.Err(); err != nil {
		t.Fatalf("pre-mutation state already dirty: %v", err)
	}
	s.flipStoredBit(t, addr, 0, 3)
	s.read(addr, 220)
	err := s.rec.Err()
	if err == nil {
		t.Fatal("flipped BLEM header bit escaped the oracle")
	}
	msg := err.Error()
	if !strings.Contains(msg, "addr=0x1388") || !strings.Contains(msg, "cycle=220") {
		t.Fatalf("diagnostic must pinpoint (address, cycle), got %q", msg)
	}
}

// TestMutationHeaderBitFlipSweep hardens the single-bit case: every bit
// of the header-bearing block's first two bytes must be caught.
func TestMutationHeaderBitFlipSweep(t *testing.T) {
	for bit := 0; bit < 16; bit++ {
		s := newShadowed(t)
		addr := uint64(9000 + bit)
		s.write(addr, 100)
		s.flipStoredBit(t, addr, 0, bit)
		s.read(addr, 220)
		if s.rec.Err() == nil {
			t.Errorf("header bit %d flip escaped the oracle", bit)
		}
	}
}
