package snap_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/snap"
	"attache/internal/tier"
)

// buildState drives a small deterministic workload through a real
// engine and exports it — the realistic snapshot shape for round-trip
// tests.
func buildState(t *testing.T, tiered bool) *snap.ClusterState {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = 42
	cfg := shard.Config{Shards: 2}
	if tiered {
		cfg.Tier = &tier.Config{NearLines: 8, Policy: tier.PolicyFreq, FreqThreshold: 2, FreqDecayEvery: 64}
	}
	eng, err := shard.New(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	rng := rand.New(rand.NewSource(7))
	line := make([]byte, core.LineSize)
	for i := 0; i < 600; i++ {
		addr := uint64(rng.Intn(96))
		if rng.Intn(2) == 0 {
			for j := range line {
				line[j] = byte(addr + uint64(i+j))
			}
			if err := eng.Write(addr, line); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := eng.Read(addr); err != nil && !errors.Is(err, core.ErrNeverWritten) {
				t.Fatal(err)
			}
		}
	}
	cs := &snap.ClusterState{Engines: []*snap.EngineState{eng.ExportState()}}
	normalize(cs)
	return cs
}

// normalize zeroes the derived stats fields snapv1 does not serialize
// (the decoder recomputes Lines and leaves PredictionAccuracy to the
// restored predictor), so exported and decoded states compare equal.
func normalize(cs *snap.ClusterState) {
	for _, e := range cs.Engines {
		for i := range e.Shards {
			e.Shards[i].Mem.Stats.PredictionAccuracy = 0
			e.Shards[i].Mem.Stats.Lines = uint64(len(e.Shards[i].Mem.Lines))
		}
	}
}

// TestRoundTrip: decode(encode(state)) reproduces the state exactly,
// and encoding is deterministic.
func TestRoundTrip(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		name := "untiered"
		if tiered {
			name = "tiered"
		}
		t.Run(name, func(t *testing.T) {
			cs := buildState(t, tiered)
			enc := snap.EncodeBytes(cs)
			if !bytes.Equal(enc, snap.EncodeBytes(cs)) {
				t.Fatal("encoding is not deterministic")
			}
			got, err := snap.DecodeBytes(enc)
			if err != nil {
				t.Fatalf("decode of a fresh encoding failed: %v", err)
			}
			if !reflect.DeepEqual(got, cs) {
				t.Fatalf("decode(encode(state)) != state")
			}
			if !bytes.Equal(snap.EncodeBytes(got), enc) {
				t.Fatal("encode(decode(bytes)) != bytes")
			}
		})
	}
}

// TestStreamRoundTrip: the io.Writer/io.Reader forms agree with the
// byte-slice forms.
func TestStreamRoundTrip(t *testing.T) {
	cs := buildState(t, true)
	var buf bytes.Buffer
	if err := snap.Encode(&buf, cs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), snap.EncodeBytes(cs)) {
		t.Fatal("Encode and EncodeBytes disagree")
	}
	got, err := snap.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cs) {
		t.Fatal("stream decode did not round-trip")
	}
}

// TestMultiEngine: a multi-instance cluster snapshot round-trips too.
func TestMultiEngine(t *testing.T) {
	a, b := buildState(t, true), buildState(t, false)
	cs := &snap.ClusterState{Engines: []*snap.EngineState{a.Engines[0], b.Engines[0]}}
	got, err := snap.DecodeBytes(snap.EncodeBytes(cs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cs) {
		t.Fatal("multi-engine snapshot did not round-trip")
	}
}

// TestDecodeRejects pins the decoder's failure taxonomy: every
// truncation of a valid snapshot fails cleanly, and targeted
// corruptions produce ErrCorrupt/ErrVersion rather than panics or
// silent acceptance.
func TestDecodeRejects(t *testing.T) {
	enc := snap.EncodeBytes(buildState(t, true))

	t.Run("every-truncation", func(t *testing.T) {
		// Every strict prefix must be rejected — no truncation may decode.
		step := 1
		if len(enc) > 4096 {
			step = len(enc) / 4096
		}
		for n := 0; n < len(enc); n += step {
			if _, err := snap.DecodeBytes(enc[:n]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(enc))
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] ^= 0xFF
		if _, err := snap.DecodeBytes(bad); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[6] = 0xFE // u16 version lives right after the 6-byte magic
		bad[7] = 0xCA
		if _, err := snap.DecodeBytes(bad); !errors.Is(err, snap.ErrVersion) {
			t.Fatalf("version skew: got %v, want ErrVersion", err)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), enc...), 0x00)
		if _, err := snap.DecodeBytes(bad); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := snap.DecodeBytes(nil); err == nil {
			t.Fatal("empty input decoded")
		}
	})
	t.Run("huge-count", func(t *testing.T) {
		// Magic + version + an absurd engine count must fail on the count
		// guard, not attempt allocation.
		b := append([]byte("ATSNAP"), 1, 0, 0xFF, 0xFF, 0xFF, 0xFF)
		if _, err := snap.DecodeBytes(b); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("huge count: got %v, want ErrCorrupt", err)
		}
	})
}

// fixtureEngine drives the seeded workload behind the committed
// testdata/*.snapv1 fixtures: a 3-bit CID so incompressible lines
// collide into the Replacement Area, a small predictor so the tables
// stay a few KB, and (tiered) the freq policy so near lines and far
// freq counters are both populated.
func fixtureEngine(t *testing.T, tiered bool) *shard.Engine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = 42
	opts.CIDBits = 3
	opts.Predictor.PaPRBytes, opts.Predictor.PaPRWays = 64, 2
	opts.Predictor.LiPRBytes, opts.Predictor.LiPRWays = 256, 2
	cfg := shard.Config{Shards: 2}
	if tiered {
		cfg.Tier = &tier.Config{NearLines: 8, Policy: tier.PolicyFreq, FreqThreshold: 2, FreqDecayEvery: 64}
	}
	eng, err := shard.New(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	rng := rand.New(rand.NewSource(7))
	line := make([]byte, core.LineSize)
	for i := 0; i < 900; i++ {
		addr := uint64(rng.Intn(160))
		if rng.Intn(2) == 0 {
			if addr%2 == 0 {
				rng.Read(line)
			} else {
				for j := range line {
					line[j] = byte(addr)
				}
			}
			if err := eng.Write(addr, line); err != nil {
				t.Fatal(err)
			}
		} else if _, err := eng.Read(addr); err != nil && !errors.Is(err, core.ErrNeverWritten) {
			t.Fatal(err)
		}
	}
	return eng
}

// TestFixtures pins the snapv1 byte layout against snapshots written by
// the two-sided encoder that preceded the single walk (the commit before
// the codec collapse, same workload): today's WriteSnapshot must
// reproduce them byte for byte, and they must survive decode→encode
// unchanged. Never regenerate these files to make the test pass — a
// diff here is a format change and needs a Version bump.
func TestFixtures(t *testing.T) {
	for _, fx := range []struct {
		file   string
		tiered bool
	}{
		{"untiered-predictor.snapv1", false},
		{"tiered-freq.snapv1", true},
	} {
		t.Run(fx.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := fixtureEngine(t, fx.tiered).WriteSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("WriteSnapshot wrote %d bytes that differ from the %d-byte fixture", got.Len(), len(want))
			}
			cs, err := snap.DecodeBytes(want)
			if err != nil {
				t.Fatalf("fixture does not decode: %v", err)
			}
			if !bytes.Equal(snap.EncodeBytes(cs), want) {
				t.Fatal("EncodeBytes(DecodeBytes(fixture)) != fixture")
			}
			// The fixture is only a pin if every optional section is in it.
			var ra, near, freq int
			for _, s := range cs.Engines[0].Shards {
				if s.Mem.Copr == nil || s.Mem.Copr.PaPR == nil || s.Mem.Copr.LiPR == nil {
					t.Fatal("fixture shard has no predictor tables")
				}
				ra += len(s.Mem.Blem.RA)
				if s.Tier != nil {
					near += len(s.Tier.Near)
					freq += len(s.Tier.FarFreq)
				}
			}
			if ra == 0 || fx.tiered && (near == 0 || freq == 0) {
				t.Fatalf("fixture sections empty: RA=%d near=%d freq=%d", ra, near, freq)
			}
		})
	}
}
