package compress

import (
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 1)
	w.WriteBits(0xDEADBEEF, 32)
	if w.Len() != 44 {
		t.Fatalf("bit length = %d, want 44", w.Len())
	}
	r := NewBitReader(w.Bytes())
	for _, c := range []struct {
		n    int
		want uint64
	}{{3, 0b101}, {8, 0xFF}, {1, 0}, {32, 0xDEADBEEF}} {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("ReadBits(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestBitReaderRemaining(t *testing.T) {
	r := NewBitReader([]byte{1, 2, 3})
	if (len(r.buf)*8 - r.pos) != 24 {
		t.Fatalf("remaining = %d, want 24", (len(r.buf)*8 - r.pos))
	}
	r.ReadBits(5)
	if (len(r.buf)*8 - r.pos) != 19 {
		t.Fatalf("remaining = %d, want 19", (len(r.buf)*8 - r.pos))
	}
}

func TestBitWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBits(65) should panic")
		}
	}()
	var w BitWriter
	w.WriteBits(0, 65)
}

func TestReadBitsWidthValidation(t *testing.T) {
	r := NewBitReader(make([]byte, 16))
	if _, err := r.ReadBits(65); err == nil {
		t.Fatal("ReadBits(65) should error")
	}
	if _, err := r.ReadBits(-1); err == nil {
		t.Fatal("ReadBits(-1) should error")
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		v    uint64
		bits int
		want int64
	}{
		{0xF, 4, -1},
		{0x7, 4, 7},
		{0x8, 4, -8},
		{0xFF, 8, -1},
		{0x80, 8, -128},
		{0x7F, 8, 127},
		{0xFFFF, 16, -1},
		{0xFFFFFFFFFFFFFFFF, 64, -1},
	}
	for _, c := range cases {
		if got := signExtend(c.v, c.bits); got != c.want {
			t.Errorf("signExtend(%#x, %d) = %d, want %d", c.v, c.bits, got, c.want)
		}
	}
}

func TestFitsSigned(t *testing.T) {
	cases := []struct {
		x    int64
		bits int
		want bool
	}{
		{127, 8, true}, {128, 8, false}, {-128, 8, true}, {-129, 8, false},
		{0, 1, true}, {-1, 1, true}, {1, 1, false},
		{1 << 40, 64, true},
	}
	for _, c := range cases {
		if got := fitsSigned(c.x, c.bits); got != c.want {
			t.Errorf("fitsSigned(%d, %d) = %v, want %v", c.x, c.bits, got, c.want)
		}
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestBitStreamRoundTripProperty(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		var w BitWriter
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		type rec struct {
			v    uint64
			bits int
		}
		var recs []rec
		for i := 0; i < n; i++ {
			bits := int(widths[i]%64) + 1
			v := vals[i] & maskBits(bits)
			w.WriteBits(v, bits)
			recs = append(recs, rec{v, bits})
		}
		r := NewBitReader(w.Bytes())
		for _, rc := range recs {
			got, err := r.ReadBits(rc.bits)
			if err != nil || got != rc.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
