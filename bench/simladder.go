package main

import (
	"fmt"
	"time"

	"attache/internal/config"
	"attache/internal/dram"
	"attache/internal/mdcache"
	"attache/internal/memctrl"
	"attache/internal/sim"
	"attache/internal/trace"
)

// The simulator ladder: the reference stream of one benchmark profile
// fed to each simulator layer on its own, bottom up — the generator, the
// event kernel, a bare DRAM channel set, a bare metadata cache, the
// memory controller without cores or LLC — and then the full system.

const (
	// simRungRefs is the length of the stream the layer rungs consume.
	simRungRefs = 200_000
	// simRungWindow is how many reads a rung keeps in flight: about what
	// eight cores' MSHRs would.
	simRungWindow = 32
)

var sinkAddr uint64 // keeps the generator rung's loop from being optimised away

func simLadder(rec *record, seed int64) error {
	cfg := config.Default()
	cells, err := simCells(cfg.CPU.Cores)
	if err != nil {
		return err
	}
	prof := cells[0].profiles[0] // the first profile of the sweep

	// trace: the generator alone.
	gen := trace.NewGenerator(prof, seed, 0)
	t0 := time.Now()
	for i := 0; i < simRungRefs; i++ {
		sinkAddr ^= gen.Next().LineAddr
	}
	rec.set("trace.next_ns_per_ref", float64(time.Since(t0))/simRungRefs)

	// sim: Schedule/Step alone — a window of events that each reschedule
	// themselves a pseudo-random delay ahead, like a busy memory system.
	eng := sim.NewEngine()
	left := simRungRefs * 4
	var tick sim.Event
	tick = func(now sim.Time) {
		if left--; left > 0 {
			eng.Schedule(now+1+sim.Time(left%97), tick)
		}
	}
	for i := 0; i < simRungWindow; i++ {
		eng.Schedule(sim.Time(i), tick)
	}
	t0 = time.Now()
	eng.Run(-1)
	rec.set("sim.step_ns_per_event", per(float64(time.Since(t0)), float64(eng.Steps())))

	// dram: bare channels fed decoded requests, both sub-ranks.
	eng = sim.NewEngine()
	mapper := dram.NewAddressMapper(cfg)
	chans := make([]*dram.Channel, cfg.DRAM.Channels)
	for i := range chans {
		chans[i] = dram.NewChannel(eng, cfg, i)
	}
	gen = trace.NewGenerator(prof, seed, 0)
	t0 = time.Now()
	if err := feedWindowed(eng, func(done func(sim.Time)) bool {
		a := gen.Next()
		loc := mapper.Decode(a.LineAddr)
		req := &dram.Request{Write: a.Store, Loc: loc, SubRanks: dram.SubRankBoth}
		if !a.Store {
			req.Done = done
		}
		chans[loc.Channel].Submit(req)
		return !a.Store
	}); err != nil {
		return fmt.Errorf("dram rung: %w", err)
	}
	rec.set("dram.submit_ns_per_req", float64(time.Since(t0))/simRungRefs)
	var hits, total uint64
	for _, ch := range chans {
		hits += ch.Stats.RowHits.Hits()
		total += ch.Stats.RowHits.Total()
	}
	rec.set("dram.row_hit_rate", per(float64(hits), float64(total)))

	// mdcache: the metadata cache alone, keyed as the controller keys it.
	policy, err := mdcache.ParsePolicy(cfg.MDCache.Policy)
	if err != nil {
		return err
	}
	mdc := mdcache.New(cfg.MDCache.Bytes, cfg.MDCache.Ways, policy)
	gen = trace.NewGenerator(prof, seed, 0)
	perRow := uint64(mapper.LinesPerRow())
	t0 = time.Now()
	for i := 0; i < simRungRefs; i++ {
		a := gen.Next()
		mdc.Access(a.LineAddr/perRow, a.Store)
	}
	rec.set("mdcache.access_ns", float64(time.Since(t0))/simRungRefs)
	rec.set("mdcache.hit_rate", mdc.Stats.HitRate())

	// memctrl: the Attaché controller driven straight from the stream,
	// no cores and no LLC in front.
	eng = sim.NewEngine()
	sys, err := memctrl.New(eng, cfg, config.SystemAttache, prof.DataModel(), seed)
	if err != nil {
		return err
	}
	gen = trace.NewGenerator(prof, seed, 0)
	t0 = time.Now()
	if err := feedWindowed(eng, func(done func(sim.Time)) bool {
		a := gen.Next()
		if a.Store {
			sys.Write(a.LineAddr)
			return false
		}
		sys.Read(a.LineAddr, done)
		return true
	}); err != nil {
		return fmt.Errorf("memctrl rung: %w", err)
	}
	memctrlNS := float64(time.Since(t0)) / simRungRefs
	rec.set("memctrl.host_ns_per_memref", memctrlNS)
	rec.set("memctrl.requests_per_memref", float64(sys.Stats.TotalRequests())/simRungRefs)
	rec.set("memctrl.correction_reads_per_read", per(float64(sys.Stats.CorrectionReads.Value()), float64(sys.Stats.DataReads.Value())))
	rec.set("sim.events_per_memref", float64(eng.Steps())/simRungRefs)

	// exp: the full system on the same profile, and the sweep's headline
	// at a quarter of the sweep's length.
	full := cells[2] // prof under Attaché
	mark := markUsage()
	m, err := full.run(seed, simRefsPerCore, config.CheckOff)
	if err != nil {
		return err
	}
	used := mark.since()
	memrefs := float64(simRefsPerCore * len(full.profiles))
	expNS := float64(used.wall) / memrefs
	rec.set("exp.host_ns_per_memref", expNS)
	// Only LLC misses and writebacks reach the controller in the full
	// system; price that share at the controller rung's cost.
	reach := float64(m.DataReads+m.DataWrites) / memrefs
	rec.set("exp.self_ns_per_memref", expNS-reach*memctrlNS)
	rec.set("exp.allocs_per_memref", float64(used.mallocs)/memrefs)
	rec.set("cache.llc_miss_rate", m.LLCMissRate)
	rec.set("cpu.sim_ipc", m.IPC)

	ms, err := onePass(cells, seed, simRefsPerCore/4, config.CheckOff)
	if err != nil {
		return err
	}
	speedup, _ := sweepHeadlines(ms)
	rec.set("exp.speedup_attache", speedup)
	rec.Notes["exp.speedup_error_vs_paper"] = speedup - paperSpeedup
	return nil
}

// feedWindowed issues simRungRefs requests into a simulation, keeping at
// most simRungWindow reads in flight, and runs it dry. issue submits the
// next request and reports whether it was a read that will call done.
func feedWindowed(eng *sim.Engine, issue func(done func(sim.Time)) bool) error {
	inFlight := 0
	done := func(sim.Time) { inFlight-- }
	for issued := 0; issued < simRungRefs; {
		if inFlight < simRungWindow {
			if issue(done) {
				inFlight++
			}
			issued++
		} else if !eng.Step() {
			return fmt.Errorf("%d reads in flight and no event pending", inFlight)
		}
	}
	if !eng.RunUntilDone(simRungRefs * 400) {
		return fmt.Errorf("simulation did not drain")
	}
	return nil
}
