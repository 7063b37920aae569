// Package dram models the main-memory system of Table II: DDR4-style
// channels, ranks, sub-ranks, bank groups, banks, and rows with
// tRCD/tRP/tCAS timing, FR-FCFS scheduling, refresh, a watermark-drained
// write buffer, and a DRAMSim2-style energy calculator.
//
// The model is event-driven and queueing-level: individual DDR commands
// are folded into per-request service times computed against per-bank row
// state and per-sub-rank data-bus occupancy. That preserves exactly the
// behaviours the paper measures — bandwidth, latency, bank/row locality,
// and sub-rank parallelism — without simulating every command slot.
package dram

import (
	"fmt"

	"attache/internal/config"
)

// Location is a fully decoded DRAM coordinate for one 64-byte block.
type Location struct {
	Channel int
	Group   int // bank group
	Bank    int // bank within group
	Row     int
	Col     int // block index within the row
}

// AddressMapper decodes physical line addresses into DRAM coordinates.
// The interleaving, low bits to high:
//
//	[column][channel][bank group][bank][row]
//
// so consecutive lines stream within one row, channels interleave at row
// granularity, and successive rows spread across bank groups and banks
// for parallelism.
type AddressMapper struct {
	channels, groups, banks, rows, cols int
	colBits, chBits, bgBits, bankBits   uint
}

// NewAddressMapper builds the mapper for cfg's geometry.
func NewAddressMapper(cfg config.Config) *AddressMapper {
	m := &AddressMapper{
		channels: cfg.DRAM.Channels,
		groups:   cfg.DRAM.BankGroups,
		banks:    cfg.DRAM.BanksPerGroup,
		rows:     cfg.DRAM.RowsPerBank,
		cols:     cfg.DRAM.BlocksPerRow,
	}
	m.colBits = log2(m.cols)
	m.chBits = log2(m.channels)
	m.bgBits = log2(m.groups)
	m.bankBits = log2(m.banks)
	return m
}

func log2(v int) uint {
	var b uint
	for 1<<b < v {
		b++
	}
	if 1<<b != v {
		panic(fmt.Sprintf("dram: %d is not a power of two", v))
	}
	return b
}

// Decode maps a line address (the physical byte address divided by 64) to
// its DRAM location. Addresses beyond the modeled capacity wrap.
//
// Bank and bank-group bits are XOR-hashed with low row bits — the
// standard controller permutation that keeps equal-rate streams from
// camping persistently in the same bank: a transient collision dissolves
// as soon as either stream advances a row.
func (m *AddressMapper) Decode(lineAddr uint64) Location {
	a := lineAddr
	col := int(a & (uint64(m.cols) - 1))
	a >>= m.colBits
	ch := int(a & (uint64(m.channels) - 1))
	a >>= m.chBits
	bg := int(a & (uint64(m.groups) - 1))
	a >>= m.bgBits
	bank := int(a & (uint64(m.banks) - 1))
	a >>= m.bankBits
	row := int(a % uint64(m.rows))
	bank ^= row & (m.banks - 1)
	bg ^= (row >> m.bankBits) & (m.groups - 1)
	return Location{Channel: ch, Group: bg, Bank: bank, Row: row, Col: col}
}

// LinesPerRow reports blocks per row (the metadata-region covering unit).
func (m *AddressMapper) LinesPerRow() int { return m.cols }
