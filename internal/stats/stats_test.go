package stats

import (
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
	if m.N() != 3 {
		t.Fatalf("n = %d", m.N())
	}
}

func TestMeanNegativeValues(t *testing.T) {
	var m Mean
	m.Observe(-5)
	m.Observe(5)
	if m.Value() != 0 {
		t.Fatalf("mean = %v, want 0", m.Value())
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

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x|y", 1, 2.5)
	md := tb.Markdown()
	want := "| benchmark | a | b |\n|---|---:|---:|\n| x\\|y | 1.000 | 2.500 |\n"
	if md != want {
		t.Fatalf("markdown = %q, want %q", md, want)
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
