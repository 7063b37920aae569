package dram

import (
	"testing"
	"testing/quick"

	"attache/internal/config"
)

func TestDecodeEncodeRoundTrip(t *testing.T) {
	m := NewAddressMapper(config.Default())
	f := func(lineAddr uint64) bool {
		// Stay within capacity so Encode is an exact inverse.
		lineAddr %= uint64(config.Default().MemorySize() / 64)
		loc := m.Decode(lineAddr)
		return m.Encode(loc) == lineAddr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRanges(t *testing.T) {
	cfg := config.Default()
	m := NewAddressMapper(cfg)
	for addr := uint64(0); addr < 100000; addr += 37 {
		loc := m.Decode(addr)
		if loc.Channel < 0 || loc.Channel >= cfg.DRAM.Channels {
			t.Fatalf("channel %d out of range", loc.Channel)
		}
		if loc.Group < 0 || loc.Group >= cfg.DRAM.BankGroups {
			t.Fatalf("group %d out of range", loc.Group)
		}
		if loc.Bank < 0 || loc.Bank >= cfg.DRAM.BanksPerGroup {
			t.Fatalf("bank %d out of range", loc.Bank)
		}
		if loc.Row < 0 || loc.Row >= cfg.DRAM.RowsPerBank {
			t.Fatalf("row %d out of range", loc.Row)
		}
		if loc.Col < 0 || loc.Col >= cfg.DRAM.BlocksPerRow {
			t.Fatalf("col %d out of range", loc.Col)
		}
	}
}

func TestSequentialLinesShareRow(t *testing.T) {
	m := NewAddressMapper(config.Default())
	base := m.Decode(0)
	for i := uint64(1); i < 128; i++ {
		loc := m.Decode(i)
		if loc.Row != base.Row || loc.Channel != base.Channel || m.BankIndex(loc) != m.BankIndex(base) {
			t.Fatalf("line %d left the row: %+v vs %+v", i, loc, base)
		}
		if loc.Col != int(i) {
			t.Fatalf("line %d col = %d", i, loc.Col)
		}
	}
	// Line 128 moves to the next channel (channel bit above column bits).
	if loc := m.Decode(128); loc.Channel == base.Channel {
		t.Fatal("row-crossing line should change channel")
	}
}

func TestRowStridesSpreadBanks(t *testing.T) {
	m := NewAddressMapper(config.Default())
	seen := map[int]bool{}
	// Stride of 256 lines = one full row per channel pair: walks bank
	// groups then banks.
	for i := uint64(0); i < 16; i++ {
		loc := m.Decode(i * 256)
		seen[m.BankIndex(loc)] = true
	}
	if len(seen) != 16 {
		t.Fatalf("16 row-strided lines hit %d banks, want 16", len(seen))
	}
}

func TestBankIndexBounds(t *testing.T) {
	cfg := config.Default()
	m := NewAddressMapper(cfg)
	if m.groups*m.banks != 16 {
		t.Fatalf("banks per channel = %d, want 16", m.groups*m.banks)
	}
	for addr := uint64(0); addr < 10000; addr++ {
		if bi := m.BankIndex(m.Decode(addr)); bi < 0 || bi >= 16 {
			t.Fatalf("bank index %d out of range", bi)
		}
	}
}

func TestLog2PanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	log2(12)
}

func TestEnergyAccumulator(t *testing.T) {
	var e Energy
	e.HalfActivates = 2 // == one full activate
	e.Reads64 = 1
	e.Reads32 = 2 // == one more 64B worth
	want := EnergyActivateNJ + 2*EnergyRead64NJ
	if got := e.DynamicNJ(); got != want {
		t.Fatalf("dynamic = %v nJ, want %v", got, want)
	}

	var o Energy
	o.Refreshes = 3
	e.Add(&o)
	if e.Refreshes != 3 {
		t.Fatal("Add did not merge refreshes")
	}
}

func TestBackgroundEnergyScalesWithTime(t *testing.T) {
	// 4e9 cycles at 4 GHz = 1 second; 2 ranks at 0.3 W = 0.6 J = 6e8 nJ.
	got := BackgroundNJ(4e9, 4.0, 2)
	if got < 5.9e8 || got > 6.1e8 {
		t.Fatalf("background = %v nJ, want ~6e8", got)
	}
}

// Encode is the inverse of Decode for in-capacity locations; tests use it
// to build addresses with specific locality. The bank XOR hash is an
// involution, so encoding applies the same permutation.
func (m *AddressMapper) Encode(loc Location) uint64 {
	bank := loc.Bank ^ (loc.Row & (m.banks - 1))
	bg := loc.Group ^ ((loc.Row >> m.bankBits) & (m.groups - 1))
	a := uint64(loc.Row)
	a = a<<m.bankBits | uint64(bank)
	a = a<<m.bgBits | uint64(bg)
	a = a<<m.chBits | uint64(loc.Channel)
	a = a<<m.colBits | uint64(loc.Col)
	return a
}

// BankIndex flattens (group, bank) into one index in [0, groups*banks).
func (m *AddressMapper) BankIndex(loc Location) int {
	return loc.Group*m.banks + loc.Bank
}
