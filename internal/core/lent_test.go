package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"attache/internal/core"
	"attache/internal/tier"
)

// TestLentSlotsAreBounded: a tier takes a far line out when it promotes
// it, which lends the line's table slot, and fills that slot again when it
// demotes the line. So however long a tier runs, the far memory occupies
// no more slots than it holds lines plus the near tier holds lines. The
// far memory starts with 4 Ki lines, so every policy, the unbounded near
// tier included, promotes out of it and lends slots.
func TestLentSlotsAreBounded(t *testing.T) {
	const lines, ops = 4096, 200_000
	for _, cfg := range []tier.Config{
		{NearLines: 64, Policy: tier.PolicyLRU},
		{NearLines: 64, Policy: tier.PolicyStatic, PinShift: 10, PinPrefix: 2},
		{NearLines: -1, Policy: tier.PolicyLRU},
	} {
		far, err := core.NewMemory(core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		line := make([]byte, core.LineSize)
		for a := uint64(0); a < lines; a++ {
			line[0] = byte(a)
			if err := far.Write(a, line); err != nil {
				t.Fatal(err)
			}
		}
		m, err := tier.NewMemory(cfg, far)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		var dst [core.LineSize]byte
		for i := 0; i < ops; i++ {
			addr := uint64(rng.Intn(2 * lines))
			if rng.Intn(4) == 0 {
				line[0] = byte(i)
				err = m.Write(addr, line)
			} else if err = m.ReadInto(&dst, addr); errors.Is(err, core.ErrNeverWritten) {
				err = nil
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		s := m.Snapshot()
		occupied := core.OccupiedSlots(far)
		t.Logf("%s near=%d: %d far lines, %d near, %d slots occupied", cfg.Policy, cfg.NearLines, s.FarResident, s.NearResident, occupied)
		if occupied > int(s.FarResident+s.NearResident) {
			t.Errorf("%s near=%d: %d slots occupied for %d far and %d near lines", cfg.Policy, cfg.NearLines, occupied, s.FarResident, s.NearResident)
		}
		if occupied == int(s.FarResident) {
			t.Errorf("%s near=%d: no slot is lent, so the bound went untested", cfg.Policy, cfg.NearLines)
		}
	}
}
