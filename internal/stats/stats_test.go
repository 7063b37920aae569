package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(10)
	if c.Value() != 11 {
		t.Fatalf("counter = %d, want 11", c.Value())
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	for i := 0; i < 10; i++ {
		r.Observe(i < 7)
	}
	if r.Value() != 0.7 {
		t.Fatalf("ratio = %v, want 0.7", r.Value())
	}
	if r.Hits() != 7 || r.Total() != 10 {
		t.Fatalf("hits/total = %d/%d", r.Hits(), r.Total())
	}
}

func TestMean(t *testing.T) {
	var m Mean
	for _, v := range []float64{2, 4, 6} {
		m.Observe(v)
	}
	if m.Value() != 4 {
		t.Fatalf("mean = %v, want 4", m.Value())
	}
	if m.Min() != 2 || m.Max() != 6 {
		t.Fatalf("min/max = %v/%v", m.Min(), m.Max())
	}
	if m.N() != 3 {
		t.Fatalf("n = %d", m.N())
	}
}

func TestMeanNegativeValues(t *testing.T) {
	var m Mean
	m.Observe(-5)
	m.Observe(5)
	if m.Min() != -5 || m.Max() != 5 || m.Value() != 0 {
		t.Fatalf("min/max/mean = %v/%v/%v", m.Min(), m.Max(), m.Value())
	}
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(10, 10)
	for _, v := range []float64{5, 15, 15, 95, 200} {
		h.Observe(v)
	}
	if h.Bucket(0) != 1 || h.Bucket(1) != 2 || h.Bucket(9) != 1 {
		t.Fatalf("bucket counts wrong: %d %d %d", h.Bucket(0), h.Bucket(1), h.Bucket(9))
	}
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d, want 1", h.Overflow())
	}
	if h.N() != 5 {
		t.Fatalf("n = %d", h.N())
	}
	if math.Abs(h.Mean()-66) > 1e-9 {
		t.Fatalf("mean = %v, want 66", h.Mean())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	p50 := h.Percentile(50)
	if p50 < 48 || p50 > 52 {
		t.Fatalf("p50 = %v, want ~50", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 97 || p99 > 100 {
		t.Fatalf("p99 = %v, want ~99", p99)
	}
}

// TestQuantile pins the nearest-rank rule index = floor(q*(n-1)).
func TestQuantile(t *testing.T) {
	s := []int{10, 20, 30}
	for q, want := range map[float64]int{0: 10, 0.49: 10, 0.5: 20, 0.99: 20, 1: 30} {
		if got := Quantile(s, q); got != want {
			t.Errorf("Quantile(%v, %v) = %d, want %d", s, q, got, want)
		}
	}
	if got := Quantile([]string{"only"}, 0.99); got != "only" {
		t.Errorf("single-sample quantile = %q", got)
	}
}

// TestSplitMix64 pins the mixer to the reference splitmix64 stream
// (Vigna's first outputs for seed 0): shard placement, the scrambler
// keystream and every golden depend on these exact bits.
func TestSplitMix64(t *testing.T) {
	const gamma = 0x9E3779B97F4A7C15
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F} {
		if got := SplitMix64(uint64(i) * gamma); got != want {
			t.Errorf("output %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram(1, 4)
	h.Observe(-3)
	if h.Bucket(0) != 1 {
		t.Fatal("negative sample should clamp to bucket 0")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		w float64
		n int
	}{{0, 4}, {1, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%d) did not panic", tc.w, tc.n)
				}
			}()
			NewHistogram(tc.w, tc.n)
		}()
	}
}

func TestTableMeansAndRender(t *testing.T) {
	tb := NewTable("test", "a", "b")
	tb.AddRow("x", 1, 10)
	tb.AddRow("y", 3, 30)
	if tb.ColumnMean(0) != 2 || tb.ColumnMean(1) != 20 {
		t.Fatalf("column means wrong: %v %v", tb.ColumnMean(0), tb.ColumnMean(1))
	}
	tb.AddMeanRow()
	if tb.Rows() != 3 || tb.RowLabel(2) != "mean" {
		t.Fatalf("mean row missing")
	}
	if tb.Cell(2, 1) != 20 {
		t.Fatalf("mean cell = %v", tb.Cell(2, 1))
	}
	s := tb.String()
	if !strings.Contains(s, "== test ==") || !strings.Contains(s, "mean") {
		t.Fatalf("render missing pieces:\n%s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", 1.5, 2)
	csv := tb.CSV()
	want := "benchmark,a,b\nx;y,1.5,2\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestTablePanicsOnCellMismatch(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong cell count")
		}
	}()
	tb.AddRow("x", 1)
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 100})
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean = %v, want 10", got)
	}
	if GeoMean([]float64{-1, 0}) != 0 {
		t.Fatal("geomean of non-positive should be 0")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"c": 1, "a": 2, "b": 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
}

// Property: ratio value is always within [0, 1].
func TestRatioBoundsProperty(t *testing.T) {
	f := func(obs []bool) bool {
		var r Ratio
		for _, o := range obs {
			r.Observe(o)
		}
		v := r.Value()
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram never loses samples (buckets + overflow == N).
func TestHistogramConservationProperty(t *testing.T) {
	f := func(samples []float64) bool {
		h := NewHistogram(5, 8)
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			h.Observe(s)
		}
		var total uint64
		for i := 0; i < 8; i++ {
			total += h.Bucket(i)
		}
		return total+h.Overflow() == h.N()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
