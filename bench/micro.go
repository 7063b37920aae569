package main

import (
	"time"

	"attache/internal/blem"
	"attache/internal/compress"
	"attache/internal/copr"
	"attache/internal/core"
	"attache/internal/loadgen"
	"attache/internal/scramble"
	"attache/internal/workload"
)

// The codec rungs: compress, scramble, blem and copr called directly,
// the way core.Framework calls them, over the workload's own lines.

// microMaxLines caps the lines the codec rungs process.
const microMaxLines = 1 << 15

// writtenLines collects the payloads the ladder slice writes, topped up
// with prefill lines: the data the framework sees under this workload.
func writtenLines(r *ring, evs []loadgen.Event) (addrs []uint64, lines [][]byte) {
	for _, ev := range evs {
		for _, op := range ev.Ops {
			if op.Write && len(lines) < microMaxLines/2 {
				addrs, lines = append(addrs, op.Addr), append(lines, op.Data)
			}
		}
	}
	for a := uint64(0); a < r.space && len(lines) < microMaxLines; a++ {
		addrs, lines = append(addrs, a), append(lines, r.fill(a))
	}
	return addrs, lines
}

// codecRungs times the per-line steps of Framework.Store and Load.
func codecRungs(rec *record, r *ring, evs []loadgen.Event) error {
	addrs, lines := writtenLines(r, evs)
	n := float64(len(lines))
	opts := engineOptions()
	comp := compress.NewEngine()
	scr := scramble.New(uint64(opts.Seed) * 0x9E3779B97F4A7C15)
	be := blem.NewEngine(opts.CIDBits, opts.Seed)

	// compress: trial compression plus packing, as Store does.
	packed := make([][]byte, len(lines))
	mark := markUsage()
	for i, line := range lines {
		if c := comp.Compress(line); c.Algo != compress.AlgoNone {
			packed[i] = c.Pack()
		}
	}
	used := mark.since()
	rec.set("compress.compress_ns_per_line", float64(used.wall)/n)
	rec.set("compress.allocs_per_line", float64(used.mallocs)/n)
	var compressible [][]byte
	for _, p := range packed {
		if p != nil {
			compressible = append(compressible, p)
		}
	}
	rec.set("compress.compressible_share", float64(len(compressible))/n)

	// decompress: unpack plus decompress, as Load does.
	t0 := time.Now()
	for _, p := range compressible {
		u, err := compress.Unpack(p)
		if err != nil {
			return err
		}
		if _, err := comp.Decompress(u); err != nil {
			return err
		}
	}
	rec.set("compress.decompress_ns_per_line", per(float64(time.Since(t0)), float64(len(compressible))))

	// scramble: the keystream XOR over whole lines (copies: it is in place).
	scratch := make([][]byte, len(lines))
	for i, line := range lines {
		scratch[i] = append([]byte(nil), line...)
	}
	t0 = time.Now()
	for i, line := range scratch {
		scr.Apply(addrs[i], line)
	}
	rec.set("scramble.apply_ns_per_line", float64(time.Since(t0))/n)

	// blem: header packing of compressed payloads, classification of
	// first blocks, and CID collisions among the scrambled raw lines.
	blocks := make([][blem.SubRankSize]byte, 0, len(lines))
	t0 = time.Now()
	for _, p := range compressible {
		b, err := be.PackCompressed(p)
		if err != nil {
			return err
		}
		blocks = append(blocks, b)
	}
	rec.set("blem.pack_ns_per_line", per(float64(time.Since(t0)), float64(len(compressible))))
	var raw, collisions float64
	for i, p := range packed {
		if p != nil {
			continue
		}
		stored, collided := be.StoreUncompressed(addrs[i], scratch[i])
		raw++
		if collided {
			collisions++
		}
		blocks = append(blocks, [blem.SubRankSize]byte(stored[:blem.SubRankSize]))
	}
	rec.set("blem.collisions_per_mline", per(collisions*1e6, raw))
	t0 = time.Now()
	for i := range blocks {
		be.Classify(blocks[i][:])
	}
	rec.set("blem.classify_ns_per_line", per(float64(time.Since(t0)), float64(len(blocks))))

	// copr: predict then update with the truth, per read of the slice,
	// as Load does; the truth is whether the address's line compresses.
	pred := copr.New(copr.DefaultConfig())
	truth := make(map[uint64]bool, len(lines))
	for i, a := range addrs {
		truth[a] = packed[i] != nil // later lines of an address overwrite earlier ones
	}
	var reads float64
	t0 = time.Now()
	for _, ev := range evs {
		for _, op := range ev.Ops {
			if op.Write {
				continue
			}
			byteAddr := op.Addr * core.LineSize
			pred.Predict(byteAddr)
			pred.Update(byteAddr, truth[op.Addr])
			reads++
		}
	}
	rec.set("copr.predict_update_ns_per_read", per(float64(time.Since(t0)), reads))
	return nil
}

// generatorRungs prices the two input generators the rings come from.
func generatorRungs(rec *record, seed int64) error {
	t0 := time.Now()
	evs := loadgen.Plan(loadgen.Config{Seed: seed, Events: maxRingEvents, AddrSpace: lines64Ki, ReadWeight: 7, WriteWeight: 3, Prefill: -1})
	rec.set("loadgen.plan_us_per_event", micros(time.Since(t0))/float64(len(evs)))

	spec, err := workload.Preset("tiered-hotset", seed, maxRingEvents)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if evs, err = workload.Compose(spec); err != nil {
		return err
	}
	rec.set("workload.compose_us_per_event", micros(time.Since(t0))/float64(len(evs)))
	return nil
}
