package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"attache/internal/compress"
)

// The trivially-right model of a Memory: the last bytes written to each
// live address, and — because the driver chooses every payload by the
// form it will be stored in — which of those lines are compressed and
// which collided, so the memory's gauges and deterministic counters have
// an expected value after every operation.

// The six stored forms of hotPathClasses, as the driver draws them.
const (
	formZero = iota
	formBDI
	formFPC
	formCPack
	formIncompressible
	formCollision
	numForms
)

type memoryModel struct {
	t    *testing.T
	seed int64
	rng  *rand.Rand
	// probe is a framework with the memories' options: whether a raw line
	// collides at an address depends on those alone, so it answers without
	// touching a memory under test.
	probe *Framework
	// mems are the memory under test and, from the mid-run snapshot on,
	// the memory restored from it; both see every later operation.
	mems  []*Memory
	lines map[uint64][LineSize]byte
	form  map[uint64]int
	peak  int           // most lines ever live at once
	want  StatsSnapshot // the counters the forms determine
}

// payload draws a line that the framework stores at addr in the given form.
func (md *memoryModel) payload(form int, addr uint64) []byte {
	var line []byte
	switch form {
	case formZero:
		line = make([]byte, LineSize)
	case formBDI:
		line = compressibleLine(md.rng.Intn(1 << 20))
	case formFPC: // zero, 4-bit and upper-halfword words: no BDI base
		line = wordsLine([16]uint32{0, uint32(md.rng.Intn(8)), 0x12340000, 0, 0xFFFFFFFD, 0x56780000, 0, 7,
			0, uint32(md.rng.Intn(1<<15)) << 16, 0, 3, 0x7EEF0000, 0, 0, 1})
	case formCPack: // two unrelated words: dictionary hits after the first two
		a, b := md.rng.Uint32()|1<<31, md.rng.Uint32()|1<<30
		line = wordsLine([16]uint32{a, b, a, a, b, a, b, b, a, b, b, a, a, b, a, b})
	default:
		for {
			line = randomLine(md.rng)
			st, _, err := md.probe.Store(addr, line)
			if err != nil {
				md.t.Fatal(err)
			}
			if !st.Compressed && st.Collision == (form == formCollision) {
				return line
			}
		}
	}
	wantAlgo := [...]compress.Algorithm{compress.AlgoBDI, compress.AlgoBDI, compress.AlgoFPC, compress.AlgoCPack}[form]
	if algo, _ := md.probe.Comp.Choose(line); algo != wantAlgo {
		md.t.Fatalf("seed %d: form %d line %x: engine chose %v, want %v", md.seed, form, line, algo, wantAlgo)
	}
	return line
}

// check compares every memory's books with the model's after an
// operation on addr; every 64 operations (full) it also recounts each
// table's flags against its own gauges and holds the free list to its
// bound.
func (md *memoryModel) check(op int, addr uint64, full bool) {
	md.want.Lines = uint64(len(md.lines))
	md.peak = max(md.peak, len(md.lines))
	for i, m := range md.mems {
		got := m.StatsSnapshot()
		if m.Lines() != len(md.lines) || got.Lines != md.want.Lines ||
			got.CompressedLines != md.want.CompressedLines || got.RAOccupancy != md.want.RAOccupancy ||
			got.Writes != md.want.Writes || got.Reads != md.want.Reads ||
			got.BlocksWritten != md.want.BlocksWritten || got.RAAccesses != md.want.RAAccesses {
			md.t.Fatalf("seed %d op %d addr %#x memory %d: books %+v, model %+v", md.seed, op, addr, i, got, md.want)
		}
		if got != md.mems[0].StatsSnapshot() {
			md.t.Fatalf("seed %d op %d addr %#x: restored memory's stats %+v, original's %+v", md.seed, op, addr, got, md.mems[0].StatsSnapshot())
		}
		if !full {
			continue
		}
		var compressed, collided uint64
		for a, l := range m.lines {
			if l.Compressed != (md.form[a] <= formCPack) || l.Collision != (md.form[a] == formCollision) {
				md.t.Fatalf("seed %d op %d memory %d: line %#x stored compressed=%v collision=%v, written as form %d",
					md.seed, op, i, a, l.Compressed, l.Collision, md.form[a])
			}
			if l.Compressed {
				compressed++
			}
			if l.Collision {
				collided++
			}
		}
		if compressed != got.CompressedLines || collided != got.RAOccupancy {
			md.t.Fatalf("seed %d op %d memory %d: table holds %d compressed and %d collided lines, gauges say %d and %d",
				md.seed, op, i, compressed, collided, got.CompressedLines, got.RAOccupancy)
		}
		if len(m.free)+len(m.lines) > md.peak {
			md.t.Fatalf("seed %d op %d memory %d: %d free entries beside %d lines, peak was %d", md.seed, op, i, len(m.free), len(m.lines), md.peak)
		}
	}
}

func (md *memoryModel) write(op int, addr uint64) {
	form := md.rng.Intn(numForms)
	if old, live := md.form[addr]; live && form == old {
		form = (form + 1 + md.rng.Intn(numForms-1)) % numForms // an overwrite changes the form
	}
	line := md.payload(form, addr)
	for i, m := range md.mems {
		if err := m.Write(addr, line); err != nil {
			md.t.Fatalf("seed %d op %d memory %d: Write(%#x): %v", md.seed, op, i, addr, err)
		}
	}
	if old, live := md.form[addr]; live {
		md.forget(old)
	}
	md.lines[addr] = [LineSize]byte(line)
	md.form[addr] = form
	md.want.Writes++
	switch {
	case form <= formCPack:
		md.want.CompressedLines++
		md.want.BlocksWritten++
	case form == formCollision:
		md.want.RAOccupancy++
		md.want.RAAccesses++
		md.want.BlocksWritten += 2
	default:
		md.want.BlocksWritten += 2
	}
}

// forget takes a line of the given form out of the expected gauges.
func (md *memoryModel) forget(form int) {
	if form <= formCPack {
		md.want.CompressedLines--
	} else if form == formCollision {
		md.want.RAOccupancy--
	}
}

func (md *memoryModel) step(op int) {
	addr := uint64(md.rng.Intn(256))
	want, live := md.lines[addr]
	switch k := md.rng.Intn(20); {
	case k < 9:
		md.write(op, addr)
	case k < 12:
		for i, m := range md.mems {
			if m.Delete(addr) != live {
				md.t.Fatalf("seed %d op %d memory %d: Delete(%#x) = %v, model holds it: %v", md.seed, op, i, addr, !live, live)
			}
		}
		if live {
			md.forget(md.form[addr])
			delete(md.lines, addr)
			delete(md.form, addr)
		}
	case k < 18:
		for i, m := range md.mems {
			var got [LineSize]byte
			err := m.ReadInto(&got, addr)
			if live && (err != nil || got != want) {
				md.t.Fatalf("seed %d op %d memory %d: ReadInto(%#x) = %x, %v; model %x", md.seed, op, i, addr, got, err, want)
			}
			if !live && !errors.Is(err, ErrNeverWritten) {
				md.t.Fatalf("seed %d op %d memory %d: ReadInto(%#x) of a line the model does not hold: %v", md.seed, op, i, addr, err)
			}
		}
		if live {
			md.want.Reads++
			if md.form[addr] == formCollision {
				md.want.RAAccesses++
			}
		}
	default:
		for i, m := range md.mems {
			if m.Contains(addr) != live {
				md.t.Fatalf("seed %d op %d memory %d: Contains(%#x) = %v, model %v", md.seed, op, i, addr, !live, live)
			}
		}
	}
	md.check(op, addr, op%64 == 63)
}

// TestMemoryAnswersToModel drives Write (every stored form, overwrites
// always in another form), Delete, re-Write, ReadInto and Contains over
// 256 addresses of a memory whose 4-bit CID makes one raw line in sixteen
// collide, with the self-check on, against the model above. Halfway the
// memory is snapshotted and restored into a fresh one, and both carry on:
// same answers, same stats, same final image.
func TestMemoryAnswersToModel(t *testing.T) {
	opts := DefaultOptions()
	opts.CIDBits = 4
	opts.ExtendedCompression = true
	const ops = 6000
	for seed := int64(1); seed <= 4; seed++ {
		probe, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMemory(opts)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableCheck()
		md := &memoryModel{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), probe: probe, mems: []*Memory{m},
			lines: map[uint64][LineSize]byte{}, form: map[uint64]int{}}
		for op := 0; op < ops; op++ {
			if op == ops/2 {
				r, err := restore(t, opts, snapshot(m))
				if err != nil {
					t.Fatalf("seed %d: mid-run restore: %v", seed, err)
				}
				r.EnableCheck()
				md.mems = append(md.mems, r)
			}
			md.step(op)
		}
		if md.want.RAOccupancy == 0 || md.want.RAAccesses < 100 || len(m.free) == 0 {
			t.Fatalf("seed %d: the run left %d collided lines after %d RA accesses and %d free entries", seed, md.want.RAOccupancy, md.want.RAAccesses, len(m.free))
		}
		if !bytes.Equal(snapshot(md.mems[1]), snapshot(m)) {
			t.Fatalf("seed %d: the restored memory's final image differs from the original's", seed)
		}
	}
}
