package exp

import (
	"testing"

	"attache/internal/config"
	"attache/internal/stats"
	"attache/internal/trace"
)

func TestAddAndScaleMetrics(t *testing.T) {
	a := Metrics{Cycles: 100, DataReads: 10, EnergyNJ: 5, CoprAccuracy: 0.8}
	b := Metrics{Cycles: 300, DataReads: 30, EnergyNJ: 15, CoprAccuracy: 0.6}
	sum := a
	stats.Add(&sum, b)
	if sum.Cycles != 400 || sum.DataReads != 40 || sum.EnergyNJ != 20 {
		t.Fatalf("add wrong: %+v", sum)
	}
	avg := sum
	stats.Scale(&avg, 0.5)
	if avg.Cycles != 200 || avg.DataReads != 20 || avg.EnergyNJ != 10 {
		t.Fatalf("scale wrong: %+v", avg)
	}
	if avg.CoprAccuracy != 0.7 {
		t.Fatalf("accuracy avg = %v", avg.CoprAccuracy)
	}
}

func TestSeedAveraging(t *testing.T) {
	runWith := func(seeds []int64) Metrics {
		h := NewHarness(0)
		h.AccessesPerCore = 400
		h.Seeds = seeds
		m, err := h.runCached("lbm", sys(config.SystemBaseline))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := runWith([]int64{1, 2})
	m1 := runWith([]int64{1})
	m2 := runWith([]int64{2})
	want := (m1.Cycles + m2.Cycles) / 2
	diff := m.Cycles - want
	if diff < -1 || diff > 1 {
		t.Fatalf("seed average %d != mean(%d, %d)", m.Cycles, m1.Cycles, m2.Cycles)
	}
}

func TestRegionModelRouting(t *testing.T) {
	lbm, err := trace.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	libq, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	rm := regionModel{
		sliceLines: mixSliceLines,
		models:     []*trace.DataModel{lbm.DataModel(), libq.DataModel()},
	}
	// Slice 0 behaves like lbm (56% compressible), slice 1 like
	// libquantum (4%).
	countComp := func(base uint64) int {
		n := 0
		for i := uint64(0); i < 2000; i++ {
			if rm.Compressible(base + i) {
				n++
			}
		}
		return n
	}
	if c := countComp(0); c < 800 {
		t.Fatalf("slice 0 compressible = %d/2000, want lbm-like", c)
	}
	if c := countComp(mixSliceLines); c > 300 {
		t.Fatalf("slice 1 compressible = %d/2000, want libquantum-like", c)
	}
	// Out-of-range addresses clamp to the last model instead of panicking.
	if rm.Compressible(mixSliceLines*10) != rm.modelFor(mixSliceLines*10).Compressible(mixSliceLines*10) {
		t.Fatal("overflow address routing inconsistent")
	}
}

func TestLLCWarmupProducesWriteTraffic(t *testing.T) {
	// The warmup makes eviction writebacks appear from the very start of
	// measurement: a short run must already show writes for a workload
	// with stores.
	m := smallRun(t, "lbm", 0, 1500)
	if m.DataWrites == 0 {
		t.Fatal("no write traffic despite warmed LLC and 45% stores")
	}
}
