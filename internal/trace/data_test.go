package trace

import (
	"bytes"
	"math"
	"testing"

	"attache/internal/compress"
)

func TestDataModelDeterministic(t *testing.T) {
	d := NewDataModel(42, 0.5, 0.9)
	for addr := uint64(0); addr < 200; addr++ {
		a := d.LineInto(addr, nil)
		b := d.LineInto(addr, nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("line %d not deterministic", addr)
		}
		if d.Compressible(addr) != d.Compressible(addr) {
			t.Fatalf("class %d not deterministic", addr)
		}
	}
}

func TestDataMatchesClass(t *testing.T) {
	e := compress.NewEngine()
	d := NewDataModel(7, 0.5, 0.8)
	for addr := uint64(0); addr < 5000; addr++ {
		line := d.LineInto(addr, nil)
		got := e.Compressible(line)
		if got != d.Compressible(addr) {
			t.Fatalf("line %d: engine says %v, model says %v", addr, got, d.Compressible(addr))
		}
	}
}

func TestCompressibleFractionCalibrated(t *testing.T) {
	for _, frac := range []float64{0.05, 0.3, 0.5, 0.7, 0.95} {
		d := NewDataModel(9, frac, 0.8)
		const n = 50000
		comp := 0
		for addr := uint64(0); addr < n; addr++ {
			if d.Compressible(addr) {
				comp++
			}
		}
		got := float64(comp) / n
		if math.Abs(got-frac) > 0.04 {
			t.Errorf("target %.2f: measured %.3f", frac, got)
		}
	}
}

func TestHomogeneityControlsPageUniformity(t *testing.T) {
	count := func(homog float64) (uniform, total int) {
		d := NewDataModel(11, 0.5, homog)
		for page := uint64(0); page < 800; page++ {
			first := d.Compressible(page * LinesPerPage)
			same := true
			for l := uint64(1); l < LinesPerPage; l++ {
				if d.Compressible(page*LinesPerPage+l) != first {
					same = false
					break
				}
			}
			if same {
				uniform++
			}
			total++
		}
		return
	}
	uniHigh, totHigh := count(1.0)
	if uniHigh != totHigh {
		t.Fatalf("homogeneity 1.0: %d/%d pages uniform", uniHigh, totHigh)
	}
	uniLow, _ := count(0.0)
	// At 50% per-line compressibility a uniform page is ~2*2^-64 likely.
	if uniLow > 5 {
		t.Fatalf("homogeneity 0.0: %d pages uniform, want ~0", uniLow)
	}
	uniMid, totMid := count(0.6)
	gotMid := float64(uniMid) / float64(totMid)
	if gotMid < 0.5 || gotMid > 0.7 {
		t.Fatalf("homogeneity 0.6: measured %.3f uniform pages", gotMid)
	}
}

func TestCIDCollisionRate(t *testing.T) {
	d := NewDataModel(5, 0.5, 0.5)
	const n = 1 << 21
	hits := 0
	for addr := uint64(0); addr < n; addr++ {
		if d.CIDCollides(addr, 15) {
			hits++
		}
	}
	want := float64(n) / (1 << 15) // 64
	if float64(hits) < want/3 || float64(hits) > want*3 {
		t.Fatalf("collisions = %d, want ~%.0f", hits, want)
	}
	// Deterministic.
	if d.CIDCollides(123, 15) != d.CIDCollides(123, 15) {
		t.Fatal("collision not deterministic")
	}
	// Shorter CIDs collide more.
	hits3 := 0
	for addr := uint64(0); addr < 10000; addr++ {
		if d.CIDCollides(addr, 3) {
			hits3++
		}
	}
	if hits3 < 800 || hits3 > 1700 {
		t.Fatalf("3-bit collisions = %d/10000, want ~1250", hits3)
	}
}

func TestDataModelPanicsOnBadFractions(t *testing.T) {
	for _, c := range []struct{ f, h float64 }{{-0.1, 0.5}, {1.1, 0.5}, {0.5, -1}, {0.5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDataModel(%v,%v) did not panic", c.f, c.h)
				}
			}()
			NewDataModel(1, c.f, c.h)
		}()
	}
}

func TestSeedsDecorrelate(t *testing.T) {
	a := NewDataModel(1, 0.5, 0.5)
	b := NewDataModel(2, 0.5, 0.5)
	same := 0
	for addr := uint64(0); addr < 1000; addr++ {
		if a.Compressible(addr) == b.Compressible(addr) {
			same++
		}
	}
	if same > 600 {
		t.Fatalf("seeds correlate: %d/1000 classes equal", same)
	}
}
