package attache_test

import (
	"bytes"
	"reflect"
	"testing"

	"attache"
)

// TestPublicTieredEngine: the public tiering surface — EngineConfig.Tier
// builds a tiered engine whose tier books conserve, and DefaultTierLink is a
// usable link model.
func TestPublicTieredEngine(t *testing.T) {
	cfg := attache.TierConfig{NearLines: 8, Link: attache.DefaultTierLink()}
	eng, err := attache.NewEngine(attache.DefaultOptions(), attache.EngineConfig{Shards: 2, Tier: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.Tiered() {
		t.Fatal("tiered engine reports untiered")
	}

	line := make([]byte, attache.LineSize)
	for i := 0; i < 64; i++ {
		line[0] = byte(i)
		if err := eng.Write(uint64(i%16), line); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Read(uint64(i % 16)); err != nil {
			t.Fatal(err)
		}
	}
	ts, ok := eng.TierSnapshot()
	if !ok {
		t.Fatal("tiered engine has no tier snapshot")
	}
	if ts.Promotions != ts.Demotions+ts.NearResident {
		t.Fatalf("tier books do not conserve: %+v", ts)
	}
	if ts.NearReads+ts.FarReads == 0 {
		t.Fatalf("no reads booked: %+v", ts)
	}

	if link := attache.DefaultTierLink(); link.FarLatencyNs <= 0 || link.FarBandwidthMult <= 0 {
		t.Fatalf("DefaultTierLink is degenerate: %+v", link)
	}
}

// TestPublicRestoreEngine: WriteSnapshot → RestoreEngine through the
// public API reproduces contents and books exactly.
func TestPublicRestoreEngine(t *testing.T) {
	eng, err := attache.NewEngine(attache.DefaultOptions(), attache.EngineConfig{Shards: 2, Tier: &attache.TierConfig{NearLines: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	line := make([]byte, attache.LineSize)
	for i := 0; i < 32; i++ {
		line[1] = byte(i)
		if err := eng.Write(uint64(i), line); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := attache.RestoreEngine(&buf, attache.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	if a, b := eng.StatsSnapshot(), re.StatsSnapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("restored stats diverged:\noriginal %+v\nrestored %+v", a, b)
	}
	for i := 0; i < 32; i++ {
		want, err := eng.Read(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Read(uint64(i))
		if err != nil {
			t.Fatalf("restored read %d: %v", i, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("line %d diverged after restore", i)
		}
	}

	// A tier config is refused on restore — the snapshot is authoritative.
	buf.Reset()
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := attache.RestoreEngine(&buf, attache.EngineConfig{Tier: &attache.TierConfig{NearLines: 4}}); err == nil {
		t.Fatal("RestoreEngine accepted a caller tier config")
	}
}
