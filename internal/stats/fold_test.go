package stats_test

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"attache/internal/core"
	"attache/internal/exp"
	"attache/internal/shard"
	"attache/internal/stats"
	"attache/internal/tier"
	"attache/internal/wire"
)

type inner struct {
	U uint64
	F float64
}

type sample struct {
	I      int
	I64    int64
	U64    uint64
	F      float64
	Arr    [4]float64
	In     inner
	Name   string
	Slice  []uint64
	Ptr    *uint64
	hidden uint64
}

func TestAddAndScale(t *testing.T) {
	p, q := uint64(7), uint64(9)
	a := sample{I: -3, I64: 10, U64: 7, F: 0.5, Arr: [4]float64{1, 2, 3, 4}, In: inner{U: 5, F: 1.5},
		Name: "a", Slice: []uint64{1}, Ptr: &p, hidden: 11}
	b := sample{I: 1, I64: 5, U64: 4, F: 0.25, Arr: [4]float64{10, 20, 30, 40}, In: inner{U: 6, F: 2.5},
		Name: "b", Slice: []uint64{2, 3}, Ptr: &q, hidden: 13}

	stats.Add(&a, b)
	want := sample{I: -2, I64: 15, U64: 11, F: 0.75, Arr: [4]float64{11, 22, 33, 44}, In: inner{U: 11, F: 4},
		Name: "a", Slice: []uint64{1}, Ptr: &p, hidden: 11}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("Add:\n got %+v\nwant %+v", a, want)
	}
	if p != 7 || a.Slice[0] != 1 {
		t.Fatalf("Add wrote through a pointer or slice: *Ptr=%d Slice=%v", p, a.Slice)
	}

	// Integers go through float64 and truncate toward zero: -2/2 = -1,
	// 15/2 = 7, 11/2 = 5.
	stats.Scale(&a, 0.5)
	want = sample{I: -1, I64: 7, U64: 5, F: 0.375, Arr: [4]float64{5.5, 11, 16.5, 22}, In: inner{U: 5, F: 2},
		Name: "a", Slice: []uint64{1}, Ptr: &p, hidden: 11}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("Scale:\n got %+v\nwant %+v", a, want)
	}
}

func TestWriteProm(t *testing.T) {
	type inner struct {
		Deep uint64 `prom:"x_deep,gauge" help:"Nested."`
	}
	type row struct {
		Name  string  `prom:"name,label"`
		Shard int     `prom:"shard,label"`
		Ops   uint64  `prom:"x_row_ops_total,counter" help:"Ops per row."`
		Note  string  `json:"note"`
		Ratio float64 `prom:"x_row_ratio,gauge" help:"A ratio per row."`
	}
	type unlabelled struct {
		N uint64 `prom:"x_unlabelled,gauge" help:"Never rendered."`
	}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"flat", struct {
			Ops      uint64  `json:"ops" prom:"x_ops_total,counter" help:"Ops done."`
			Untagged uint64  `json:"untagged"`
			Ratio    float64 `prom:"x_ratio,gauge" help:"A ratio."`
			Big      uint64  `prom:"x_big,gauge" help:"Prints as an integer."`
		}{Ops: 3, Untagged: 9, Ratio: 0.25, Big: 30000000},
			"# HELP x_ops_total Ops done.\n# TYPE x_ops_total counter\nx_ops_total 3\n" +
				"# HELP x_ratio A ratio.\n# TYPE x_ratio gauge\nx_ratio 0.25\n" +
				"# HELP x_big Prints as an integer.\n# TYPE x_big gauge\nx_big 30000000\n"},
		{"nested struct and pointer", struct {
			In  inner
			Ptr *inner
		}{In: inner{1}, Ptr: &inner{2}},
			"# HELP x_deep Nested.\n# TYPE x_deep gauge\nx_deep 1\n" +
				"# HELP x_deep Nested.\n# TYPE x_deep gauge\nx_deep 2\n"},
		{"nil pointer", struct {
			Ptr   *inner
			After int `prom:"x_after,gauge" help:"After."`
		}{After: -4},
			"# HELP x_after After.\n# TYPE x_after gauge\nx_after -4\n"},
		{"label rows", struct {
			Rows  []row
			Plain []unlabelled
			Ints  []uint64
		}{Rows: []row{{"a", 0, 1, "x", 0.5}, {"b", 1, 2, "y", 0.25}}, Plain: []unlabelled{{7}}, Ints: []uint64{8}},
			"# HELP x_row_ops_total Ops per row.\n# TYPE x_row_ops_total counter\n" +
				"x_row_ops_total{name=\"a\",shard=\"0\"} 1\nx_row_ops_total{name=\"b\",shard=\"1\"} 2\n" +
				"# HELP x_row_ratio A ratio per row.\n# TYPE x_row_ratio gauge\n" +
				"x_row_ratio{name=\"a\",shard=\"0\"} 0.5\nx_row_ratio{name=\"b\",shard=\"1\"} 0.25\n"},
		{"empty rows", struct{ Rows []row }{Rows: []row{}}, ""},
		// Exactly backslash, double quote and newline are escaped; a tab and
		// U+00A0, which %q would mangle, pass through.
		{"label escapes", struct{ Rows []row }{Rows: []row{{Name: "a\"b\\c\nd\te\u00a0", Ops: 1}}},
			"# HELP x_row_ops_total Ops per row.\n# TYPE x_row_ops_total counter\n" +
				"x_row_ops_total{name=\"a\\\"b\\\\c\\nd\te\u00a0\",shard=\"0\"} 1\n" +
				"# HELP x_row_ratio A ratio per row.\n# TYPE x_row_ratio gauge\n" +
				"x_row_ratio{name=\"a\\\"b\\\\c\\nd\te\u00a0\",shard=\"0\"} 0\n"},
	} {
		var b strings.Builder
		stats.WriteProm(&b, tc.v)
		if b.String() != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, b.String(), tc.want)
		}
	}
}

// TestPromTags holds every type WriteProm reaches from the /v1/stats
// document — walking it by WriteProm's own rules — to the tag grammar
// the exposition and the dashboards rely on: metric and label names,
// kinds, help strings, one declaration per name across the document,
// and exactly the counters ending in _total.
func TestPromTags(t *testing.T) {
	nameRE := regexp.MustCompile(`^attached_[a-z0-9_]+$`)
	labelRE := regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
	isNumber := func(k reflect.Kind) bool {
		return k >= reflect.Int && k <= reflect.Uint64 || k == reflect.Float32 || k == reflect.Float64
	}
	hasLabels := func(rt reflect.Type) bool {
		for i := 0; i < rt.NumField(); i++ {
			if strings.HasSuffix(rt.Field(i).Tag.Get("prom"), ",label") {
				return true
			}
		}
		return false
	}
	seen := map[string]string{}
	families, labels := 0, 0
	var walk func(rt reflect.Type, row bool)
	walk = func(rt reflect.Type, row bool) {
		for i := 0; i < rt.NumField(); i++ {
			sf := rt.Field(i)
			where := rt.String() + "." + sf.Name
			tag, tagged := sf.Tag.Lookup("prom")
			name, kind, _ := strings.Cut(tag, ",")
			_, help := sf.Tag.Lookup("help")
			ft := sf.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			switch {
			case tagged && !sf.IsExported():
				t.Errorf("%s: prom tag on an unexported field", where)
			case kind == "label":
				labels++
				if !row {
					t.Errorf("%s: label field outside a row type", where)
				}
				if !labelRE.MatchString(name) || help {
					t.Errorf("%s: label %q must match %s and carry no help", where, name, labelRE)
				}
				if k := sf.Type.Kind(); k != reflect.String && !isNumber(k) {
					t.Errorf("%s: label of kind %s", where, k)
				}
			case tagged:
				families++
				if !nameRE.MatchString(name) {
					t.Errorf("%s: prom name %q does not match %s", where, name, nameRE)
				}
				if kind != "counter" && kind != "gauge" {
					t.Errorf("%s: prom kind %q, want counter, gauge or label", where, kind)
				}
				if (kind == "counter") != strings.HasSuffix(name, "_total") {
					t.Errorf("%s: %s %q: exactly the counters end in _total", where, kind, name)
				}
				if sf.Tag.Get("help") == "" {
					t.Errorf("%s: prom tag without help", where)
				}
				if !isNumber(sf.Type.Kind()) {
					t.Errorf("%s: prom tag on a %s, want a number", where, sf.Type)
				}
				if prev, dup := seen[name]; dup {
					t.Errorf("%s: prom name %q already used by %s", where, name, prev)
				}
				seen[name] = where
			case help:
				t.Errorf("%s: help tag without a prom tag", where)
			case row || !sf.IsExported():
				// A row renders only its own tagged fields.
			case ft.Kind() == reflect.Struct:
				walk(ft, false)
			case sf.Type.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct && hasLabels(ft.Elem()):
				walk(ft.Elem(), true)
			}
		}
	}
	walk(reflect.TypeOf(wire.Stats{}), false)
	// 37 of /metrics' 41 families are declared by tags (serve names the
	// other four), three of them per shard and two per tenant, under
	// three labels.
	if families != 37 || labels != 3 {
		t.Errorf("walk found %d families and %d labels, want 37 and 3: is it still following WriteProm?", families, labels)
	}
}

// fill sets every numeric leaf of v to a distinct value, counting up
// from *n; floats get a fractional part so float and integer paths
// cannot be confused.
func fill(v reflect.Value, n *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Uint64:
		*n++
		v.SetUint(uint64(*n))
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.37)
	}
}

// filled returns two differently-filled values of T with no zero leaf.
func filled[T any]() (a, b T) {
	n := 0
	fill(reflect.ValueOf(&a).Elem(), &n)
	n += 1000
	fill(reflect.ValueOf(&b).Elem(), &n)
	return a, b
}

// agree reports the leaves where the frozen reference moved a value
// (want differs from before) and the fold computed something else. A
// field the reference has never heard of is not compared, so adding a
// counter to a struct needs no edit here — which is the point.
func agree(t *testing.T, path string, before, got, want reflect.Value) {
	t.Helper()
	switch before.Kind() {
	case reflect.Struct:
		for i := 0; i < before.NumField(); i++ {
			agree(t, path+"."+before.Type().Field(i).Name, before.Field(i), got.Field(i), want.Field(i))
		}
	case reflect.Array:
		for i := 0; i < before.Len(); i++ {
			agree(t, path, before.Index(i), got.Index(i), want.Index(i))
		}
	default:
		if want.Interface() != before.Interface() && got.Interface() != want.Interface() {
			t.Errorf("%s = %v, the explicit merge gave %v", path, got.Interface(), want.Interface())
		}
	}
}

func agreeOn[T any](t *testing.T, before, got, want T) {
	t.Helper()
	agree(t, reflect.TypeOf(before).String(), reflect.ValueOf(before), reflect.ValueOf(got), reflect.ValueOf(want))
}

// The ref* functions below are frozen copies of the hand-written
// per-field merges the folds replaced, kept as the reference.

func refCoreAccumulate(s *core.StatsSnapshot, o core.StatsSnapshot) {
	if s.Reads+o.Reads > 0 {
		s.PredictionAccuracy = (s.PredictionAccuracy*float64(s.Reads) +
			o.PredictionAccuracy*float64(o.Reads)) / float64(s.Reads+o.Reads)
	}
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BlocksRead += o.BlocksRead
	s.BlocksWritten += o.BlocksWritten
	s.Mispredictions += o.Mispredictions
	s.RAAccesses += o.RAAccesses
	s.CompressedLines += o.CompressedLines
	s.RAOccupancy += o.RAOccupancy
	s.Lines += o.Lines
}

func refTierAccumulate(s *tier.Snapshot, o tier.Snapshot) {
	if s.Policy == "" {
		s.Policy = o.Policy
	}
	if s.NearCapacity < 0 || o.NearCapacity < 0 {
		s.NearCapacity = -1
	} else {
		s.NearCapacity += o.NearCapacity
	}
	s.NearResident += o.NearResident
	s.FarResident += o.FarResident
	s.NearReads += o.NearReads
	s.NearWrites += o.NearWrites
	s.FarReads += o.FarReads
	s.FarWrites += o.FarWrites
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.FarAccesses += o.FarAccesses
	s.FarLinkBlocks += o.FarLinkBlocks
	s.FarLinkBytes += o.FarLinkBytes
	s.FarLatencyNs += o.FarLatencyNs
	s.NearBytes += o.NearBytes
	s.EnergyPJ += o.EnergyPJ
}

func refRobustAdd(s *shard.RobustStats, o shard.RobustStats) {
	s.Sheds += o.Sheds
	s.Canceled += o.Canceled
	s.InjectedErrors += o.InjectedErrors
	s.InjectedDelays += o.InjectedDelays
}

func refAddMetrics(a, b exp.Metrics) exp.Metrics {
	a.Cycles += b.Cycles
	a.Instructions += b.Instructions
	a.IPC += b.IPC
	a.DataReads += b.DataReads
	a.DataWrites += b.DataWrites
	a.MetaReads += b.MetaReads
	a.MetaWrites += b.MetaWrites
	a.RAReads += b.RAReads
	a.RAWrites += b.RAWrites
	a.CorrectionReads += b.CorrectionReads
	a.TotalRequests += b.TotalRequests
	a.BytesMoved += b.BytesMoved
	a.AvgReadLatency += b.AvgReadLatency
	a.BandwidthBytesPerKCycle += b.BandwidthBytesPerKCycle
	a.EnergyNJ += b.EnergyNJ
	a.EnergyActivateNJ += b.EnergyActivateNJ
	a.EnergyReadNJ += b.EnergyReadNJ
	a.EnergyWriteNJ += b.EnergyWriteNJ
	a.EnergyRefreshNJ += b.EnergyRefreshNJ
	a.EnergyBackgroundNJ += b.EnergyBackgroundNJ
	a.CoprAccuracy += b.CoprAccuracy
	a.ECCAccuracy += b.ECCAccuracy
	for i := range a.CoprSourceShare {
		a.CoprSourceShare[i] += b.CoprSourceShare[i]
		a.CoprSourceAcc[i] += b.CoprSourceAcc[i]
	}
	a.MDHitRate += b.MDHitRate
	a.CompressedReadFrac += b.CompressedReadFrac
	a.LLCMissRate += b.LLCMissRate
	a.RowHitRate += b.RowHitRate
	return a
}

func refScaleMetrics(a exp.Metrics, f float64) exp.Metrics {
	a.Cycles = int64(float64(a.Cycles) * f)
	a.Instructions = int64(float64(a.Instructions) * f)
	a.IPC *= f
	a.DataReads = uint64(float64(a.DataReads) * f)
	a.DataWrites = uint64(float64(a.DataWrites) * f)
	a.MetaReads = uint64(float64(a.MetaReads) * f)
	a.MetaWrites = uint64(float64(a.MetaWrites) * f)
	a.RAReads = uint64(float64(a.RAReads) * f)
	a.RAWrites = uint64(float64(a.RAWrites) * f)
	a.CorrectionReads = uint64(float64(a.CorrectionReads) * f)
	a.TotalRequests = uint64(float64(a.TotalRequests) * f)
	a.BytesMoved = uint64(float64(a.BytesMoved) * f)
	a.AvgReadLatency *= f
	a.BandwidthBytesPerKCycle *= f
	a.EnergyNJ *= f
	a.EnergyActivateNJ *= f
	a.EnergyReadNJ *= f
	a.EnergyWriteNJ *= f
	a.EnergyRefreshNJ *= f
	a.EnergyBackgroundNJ *= f
	a.CoprAccuracy *= f
	a.ECCAccuracy *= f
	for i := range a.CoprSourceShare {
		a.CoprSourceShare[i] *= f
		a.CoprSourceAcc[i] *= f
	}
	a.MDHitRate *= f
	a.CompressedReadFrac *= f
	a.LLCMissRate *= f
	a.RowHitRate *= f
	return a
}

// TestFoldsMatchExplicitMerges: on fully-populated values, each derived
// merge is field-for-field (and bit-for-bit: same float operations in
// the same order) what the hand-written one computed.
func TestFoldsMatchExplicitMerges(t *testing.T) {
	t.Run("core.StatsSnapshot", func(t *testing.T) {
		a, b := filled[core.StatsSnapshot]()
		got, want := a, a
		got.Accumulate(b)
		refCoreAccumulate(&want, b)
		agreeOn(t, a, got, want)
		// No reads on either side: the accuracy is kept, not averaged.
		a.Reads, b.Reads = 0, 0
		got = a
		got.Accumulate(b)
		if got.PredictionAccuracy != a.PredictionAccuracy {
			t.Errorf("zero reads: accuracy %v, want it kept at %v", got.PredictionAccuracy, a.PredictionAccuracy)
		}
	})
	t.Run("tier.Snapshot", func(t *testing.T) {
		a, b := filled[tier.Snapshot]()
		for _, tc := range []struct {
			policyA, wantPolicy          string
			capA, capB, wantNearCapacity int64
		}{
			{"lru", "lru", 8, 16, 24},
			{"", "freq", 8, 16, 24}, // an empty receiver adopts the other side's policy
			{"lru", "lru", -1, 16, -1},
			{"lru", "lru", 8, -1, -1},
		} {
			a.Policy, b.Policy = tc.policyA, "freq"
			a.NearCapacity, b.NearCapacity = tc.capA, tc.capB
			got, want := a, a
			got.Accumulate(b)
			refTierAccumulate(&want, b)
			agreeOn(t, a, got, want)
			if got.Policy != tc.wantPolicy || got.NearCapacity != tc.wantNearCapacity {
				t.Errorf("%+v: merged policy %q capacity %d", tc, got.Policy, got.NearCapacity)
			}
		}
	})
	t.Run("shard.RobustStats", func(t *testing.T) {
		a, b := filled[shard.RobustStats]()
		got, want := a, a
		stats.Add(&got, b)
		refRobustAdd(&want, b)
		agreeOn(t, a, got, want)
	})
	t.Run("exp.Metrics", func(t *testing.T) {
		a, b := filled[exp.Metrics]()
		got := a
		stats.Add(&got, b)
		want := refAddMetrics(a, b)
		agreeOn(t, a, got, want)
		for _, f := range []float64{0.5, 1.0 / 3, 1.0 / 7} {
			scaled := got
			stats.Scale(&scaled, f)
			agreeOn(t, got, scaled, refScaleMetrics(want, f))
		}
	})
}
