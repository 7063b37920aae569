package copr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"attache/internal/snap"
)

// smallConfig keeps the tables a few dozen entries so a snapshot is a
// couple of KB.
func smallConfig() Config {
	c := testConfig()
	c.PaPRBytes, c.PaPRWays = 64, 2
	c.LiPRBytes, c.LiPRWays = 256, 2
	return c
}

// trained returns a predictor with every component warmed up.
func trained(cfg Config) *Predictor {
	p := New(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		page := uint64(rng.Intn(40))
		p.Update(addrOf(page, rng.Intn(LinesPerPage)), page%3 != 0)
	}
	return p
}

func snapshot(p *Predictor) []byte {
	c := snap.NewEncoder(1)
	p.WalkSnap(c)
	return c.Bytes()
}

// restore decodes image into a fresh predictor built from cfg.
func restore(t *testing.T, cfg Config, image []byte) (*Predictor, error) {
	t.Helper()
	c, _, err := snap.Open(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	p := New(cfg)
	p.WalkSnap(c)
	return p, c.Finish()
}

// TestWalkSnapRoundTrip: a restored predictor writes the same bytes,
// scores the same, and predicts and trains in lockstep with the
// original — LRU clock included.
func TestWalkSnapRoundTrip(t *testing.T) {
	cfg := smallConfig()
	p := trained(cfg)
	image := snapshot(p)
	if want := 12 + 4 + 2*(1+8+4+4) + 5*16 + cfg.SnapshotBytes() + 4; len(image) != want {
		t.Fatalf("image is %d bytes; framing, headers, Config.SnapshotBytes and the trailer add up to %d", len(image), want)
	}
	q, err := restore(t, cfg, image)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot(q), image) {
		t.Fatal("restore→snapshot changed the bytes")
	}
	if p.Accuracy() != q.Accuracy() {
		t.Fatalf("accuracy %v restored as %v", p.Accuracy(), q.Accuracy())
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		addr := addrOf(uint64(rng.Intn(60)), rng.Intn(LinesPerPage))
		pc, ps := p.Predict(addr)
		qc, qs := q.Predict(addr)
		if pc != qc || ps != qs {
			t.Fatalf("step %d: prediction (%v,%v) vs restored (%v,%v)", i, pc, ps, qc, qs)
		}
		p.Update(addr, i%3 == 0)
		q.Update(addr, i%3 == 0)
	}
	if !bytes.Equal(snapshot(p), snapshot(q)) {
		t.Fatal("original and restored diverged under identical training")
	}
}

// TestWalkSnapRefuses: restore refuses, never repairs. Each case breaks
// a live predictor (or, where no live state can say it, the image) in
// one way a real predictor cannot reach.
func TestWalkSnapRefuses(t *testing.T) {
	cfg := smallConfig()
	// The first PaPR way starts after the framing, the GI count and
	// counters, the presence byte and tick/sets/ways; its unused B word
	// follows valid, key and A.
	paprB := 12 + 4 + cfg.GICounters + 1 + 8 + 4 + 4 + 1 + 8 + 8

	for name, tc := range map[string]struct {
		live    func(p *Predictor)
		image   func(b []byte)
		restore Config
	}{
		"papr-counter-above-3": {live: func(p *Predictor) { p.papr.table.entries[0].value = 7 }},
		"papr-unused-word-set": {image: func(b []byte) { b[paprB] = 1 }},
		"gi-counter-above-3":   {live: func(p *Predictor) { p.gi.counters[0] = 4 }},
		"hits-over-total":      {live: func(p *Predictor) { p.Stats.BySource[SourcePaPR].Restore(5, 4) }},
		"used-after-tick":      {live: func(p *Predictor) { p.lipr.table.entries[0].used = p.lipr.table.tick + 1 }},
		"geometry-mismatch":    {restore: func() Config { c := cfg; c.PaPRBytes *= 2; return c }()},
		"gi-count-mismatch":    {restore: func() Config { c := cfg; c.GICounters *= 2; return c }()},
		"presence-mismatch":    {restore: func() Config { c := cfg; c.EnableLiPR = false; return c }()},
	} {
		t.Run(name, func(t *testing.T) {
			p := trained(cfg)
			if tc.live != nil {
				tc.live(p)
			}
			image := snapshot(p)
			if tc.image != nil {
				// Edit the body and re-seal it, so that the walk, not
				// the CRC-32C trailer, is what refuses it.
				tc.image(image)
				body := len(image) - 4
				binary.LittleEndian.PutUint32(image[body:], crc32.Checksum(image[:body], crc32.MakeTable(crc32.Castagnoli)))
			}
			into := cfg
			if tc.restore != (Config{}) {
				into = tc.restore
			}
			if _, err := restore(t, into, image); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestValidate: Validate rejects exactly what New panics on.
func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Config){
		"memory-size":     func(c *Config) { c.MemorySize = -1 },
		"gi-zero":         func(c *Config) { c.GICounters = 0 },
		"gi-not-pow2":     func(c *Config) { c.GICounters = 3 },
		"papr-ways":       func(c *Config) { c.PaPRWays = 0 },
		"lipr-ways":       func(c *Config) { c.LiPRWays = -2 },
		"negative-budget": func(c *Config) { c.LiPRBytes = -1 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
	// A disabled table's sizing is never used, so never wrong.
	cfg := DefaultConfig()
	cfg.EnablePaPR, cfg.PaPRWays = false, 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("disabled PaPR with zero ways: %v", err)
	}
}
