package blem

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEngineCIDWidth(t *testing.T) {
	for bits := 1; bits <= 15; bits++ {
		e := NewEngine(bits, 42)
		if e.cidBits != bits {
			t.Fatalf("cidBits = %d, want %d", e.cidBits, bits)
		}
		if e.cid >= 1<<uint(bits) {
			t.Fatalf("CID %#x wider than %d bits", e.cid, bits)
		}
	}
}

func TestNewEnginePanicsOnBadWidth(t *testing.T) {
	for _, bits := range []int{0, 16, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEngine(%d) did not panic", bits)
				}
			}()
			NewEngine(bits, 1)
		}()
	}
}

func TestPackCompressedRoundTrip(t *testing.T) {
	e := NewEngine(15, 7)
	payload := []byte{3, 1, 4, 1, 5, 9, 2, 6}
	block, err := e.PackCompressed(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Classify(block[:]); got != ClassCompressed {
		t.Fatalf("classify = %v, want compressed", got)
	}
	if !bytes.Equal(PayloadOf(block[:])[:len(payload)], payload) {
		t.Fatal("payload not recovered")
	}
}

func TestPackCompressedRejectsOversize(t *testing.T) {
	e := NewEngine(15, 7)
	if _, err := e.PackCompressed(make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("expected oversize error")
	}
}

func TestStoreUncompressedNoCollision(t *testing.T) {
	e := NewEngine(15, 7)
	// Build a line whose top 15 bits deliberately differ from the CID.
	line := make([]byte, LineSize)
	h := (e.cid ^ 0x1) << 1 // flip a CID bit
	line[0], line[1] = byte(h>>8), byte(h)
	stored, collision := e.StoreUncompressed(100, line)
	if collision {
		t.Fatal("unexpected collision")
	}
	if !bytes.Equal(stored[:], line) {
		t.Fatal("non-colliding line must be stored verbatim")
	}
	if got := e.Classify(stored[:]); got != ClassUncompressed {
		t.Fatalf("classify = %v, want uncompressed", got)
	}
}

// buildCollidingLine returns a 64-byte line whose top CIDBits bits equal
// the CID and whose XID position holds the given bit.
func buildCollidingLine(e *Engine, xid bool, rng *rand.Rand) []byte {
	line := make([]byte, LineSize)
	rng.Read(line)
	h := e.cid << uint(16-e.cidBits)
	keepMask := uint16(1<<uint(16-e.cidBits-1)) - 1 // bits below XID
	orig := uint16(line[0])<<8 | uint16(line[1])
	h |= orig & keepMask
	if xid {
		h |= 1 << uint(15-e.cidBits)
	}
	line[0], line[1] = byte(h>>8), byte(h)
	return line
}

func TestStoreUncompressedCollisionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, xidWas := range []bool{false, true} {
		e := NewEngine(15, 7)
		line := buildCollidingLine(e, xidWas, rng)
		stored, collision := e.StoreUncompressed(200, line)
		if !collision {
			t.Fatal("expected collision")
		}
		if got := e.Classify(stored[:]); got != ClassCollision {
			t.Fatalf("classify = %v, want collision", got)
		}
		restored := e.LoadCollided(200, stored[:])
		if !bytes.Equal(restored[:], line) {
			t.Fatalf("collided line (xid bit was %v) not restored", xidWas)
		}
		if e.Stats.RAWrites.Value() != 1 || e.Stats.RAReads.Value() != 1 {
			t.Fatal("RA counters not charged")
		}
	}
}

func TestCollisionDistinctAddressesIndependent(t *testing.T) {
	e := NewEngine(15, 9)
	rng := rand.New(rand.NewSource(5))
	lineA := buildCollidingLine(e, true, rng)
	lineB := buildCollidingLine(e, false, rng)
	storedA, _ := e.StoreUncompressed(1, lineA)
	storedB, _ := e.StoreUncompressed(2, lineB)
	if got := e.LoadCollided(1, storedA[:]); !bytes.Equal(got[:], lineA) {
		t.Fatal("line A corrupted")
	}
	if got := e.LoadCollided(2, storedB[:]); !bytes.Equal(got[:], lineB) {
		t.Fatal("line B corrupted")
	}
	if e.ReplacementArea().Len() != 2 {
		t.Fatalf("RA entries = %d, want 2", e.ReplacementArea().Len())
	}
}

func TestCompressedNeverMisclassified(t *testing.T) {
	// A compressed block always classifies as compressed: the engine
	// writes CID + XID=0 itself.
	e := NewEngine(15, 11)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		payload := make([]byte, rng.Intn(MaxPayload+1))
		rng.Read(payload)
		block, err := e.PackCompressed(payload)
		if err != nil {
			t.Fatal(err)
		}
		if e.Classify(block[:]) != ClassCompressed {
			t.Fatal("compressed block misclassified")
		}
	}
}

func TestCollisionRateMatchesAnalytic(t *testing.T) {
	// Random (scrambled-looking) uncompressed lines must collide with
	// probability ~2^-cidBits. Use an 8-bit CID so the Monte-Carlo
	// converges quickly; the analytic formula covers the 15-bit case.
	e := NewEngine(8, 1234)
	rng := rand.New(rand.NewSource(99))
	const trials = 200000
	collisions := 0
	line := make([]byte, LineSize)
	for i := 0; i < trials; i++ {
		rng.Read(line)
		_, c := e.StoreUncompressed(uint64(i), line)
		if c {
			collisions++
		}
	}
	want := float64(trials) * CollisionProbability(8) // ~781
	got := float64(collisions)
	if math.Abs(got-want) > want*0.15 {
		t.Fatalf("collisions = %d, want ~%.0f", collisions, want)
	}
}

func TestCollisionProbabilityTable(t *testing.T) {
	// Table I of the paper.
	cases := map[int]float64{15: 0.0000305, 14: 0.000061, 13: 0.000122}
	for bits, want := range cases {
		got := CollisionProbability(bits)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("P(collision | %d bits) = %v, want %v", bits, got, want)
		}
	}
}

func TestReplacementAreaDefaultZero(t *testing.T) {
	ra := NewReplacementArea()
	if ra.Load(12345) {
		t.Fatal("untouched RA bit should read 0")
	}
}

func TestClassifyShortBlockPanics(t *testing.T) {
	e := NewEngine(15, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Classify([]byte{1})
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassUncompressed: "uncompressed",
		ClassCompressed:   "compressed",
		ClassCollision:    "collision",
		Class(9):          "Class(9)",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", uint8(c), c.String())
		}
	}
}

// Property: for every CID width and any raw line, store-then-load restores
// the line exactly, whether or not it collides.
func TestUncompressedRoundTripProperty(t *testing.T) {
	f := func(seed int64, width uint8, raw [LineSize]byte) bool {
		bits := int(width%15) + 1
		e := NewEngine(bits, seed)
		line := raw[:]
		stored, collision := e.StoreUncompressed(77, line)
		switch e.Classify(stored[:]) {
		case ClassUncompressed:
			return !collision && bytes.Equal(stored[:], line)
		case ClassCollision:
			restored := e.LoadCollided(77, stored[:])
			return collision && bytes.Equal(restored[:], line)
		default:
			// An uncompressed store can never look compressed: a
			// colliding store always sets XID=1.
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: forced-collision lines round-trip for every CID width.
func TestForcedCollisionRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for bits := 1; bits <= 15; bits++ {
		e := NewEngine(bits, int64(bits)*31)
		for trial := 0; trial < 200; trial++ {
			line := buildCollidingLine(e, trial%2 == 0, rng)
			stored, collision := e.StoreUncompressed(uint64(trial), line)
			if !collision {
				t.Fatalf("bits=%d: expected collision", bits)
			}
			restored := e.LoadCollided(uint64(trial), stored[:])
			if !bytes.Equal(restored[:], line) {
				t.Fatalf("bits=%d trial=%d: round trip failed", bits, trial)
			}
		}
	}
}

func TestInfoBitsRoundTrip(t *testing.T) {
	// Table I: CID 15 -> 0 info bits, 14 -> 1, 13 -> 2.
	for bits, want := range map[int]int{15: 0, 14: 1, 13: 2, 8: 7} {
		e := NewEngine(bits, 5)
		if e.InfoBits() != want {
			t.Fatalf("CID %d: info bits = %d, want %d", bits, e.InfoBits(), want)
		}
		for info := uint8(0); int(info) < 1<<uint(want); info++ {
			block, err := e.PackCompressedInfo([]byte{1, 2, 3}, info)
			if err != nil {
				t.Fatal(err)
			}
			if e.Classify(block[:]) != ClassCompressed {
				t.Fatalf("CID %d info %d: misclassified", bits, info)
			}
			if got := e.InfoOf(block[:]); got != info {
				t.Fatalf("CID %d: info = %d, want %d", bits, got, info)
			}
		}
	}
}

func TestInfoBitsOverflowRejected(t *testing.T) {
	e := NewEngine(14, 5) // 1 spare bit
	if _, err := e.PackCompressedInfo([]byte{1}, 2); err == nil {
		t.Fatal("expected info overflow error")
	}
	e15 := NewEngine(15, 5) // 0 spare bits
	if _, err := e15.PackCompressedInfo([]byte{1}, 1); err == nil {
		t.Fatal("expected info overflow error at 15-bit CID")
	}
}

// InfoOf extracts the information bits from a compressed block's header:
// what PackCompressedInfo stored, read back by the tests and the fuzz
// target.
func (e *Engine) InfoOf(block []byte) uint8 {
	if len(block) < HeaderBytes {
		panic("blem: InfoOf needs at least the 2-byte header")
	}
	mask := uint16(1)<<uint(e.InfoBits()) - 1
	return uint8(header16(block) & mask)
}
