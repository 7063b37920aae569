// Package twin is the analytical twin of the Attaché pipeline: a
// closed-form model that predicts, from a workload Spec's moments and
// an engine configuration, the same headline metrics the simulator
// measures — compression ratio, COPR accuracy, bandwidth savings, CID
// collisions, and (for tiered engines) far-link traffic — in
// microseconds instead of a full simulation run.
//
// The model (derivations in DESIGN.md §16):
//
//   - Occupancy: the address space is partitioned into segments of
//     statistically identical lines (prefill boundary, Zipf page-rank
//     buckets). Random writers Poissonize (P(never written) = e^{−w});
//     stream writers cover deterministically; the last writer wins, with
//     ownership weights proportional to per-line write rates.
//   - Compression ratio: per-class compression probabilities are probed
//     through the real codecs (classes.go), then mixed by ownership.
//   - COPR accuracy: every readable line was trained by the write that
//     stored it, and class membership is a stable function of the
//     address, so LiPR-covered reads are exact; beyond LiPR capacity the
//     model falls to PaPR's per-page majority, then the GI's global
//     majority, then the uncompressed default.
//   - Bandwidth: E[blocks/read] = 2 − q·â (q = P(line compressed),
//     â = predictor accuracy); E[blocks/write] = 2 − p(class). Savings
//     is 1 − blocks/(2·accesses), exactly the simulator's definition.
//   - Collisions: each uncompressed (scrambled) store collides with the
//     boot-time CID independently with probability 2^{−CIDBits}.
//   - Far link: the lru near tier is an LRU cache over the unified
//     access stream; Che's approximation (lru.go) gives the hit curve,
//     cold misses and demotion writebacks close the books.
//
// Evaluate is pure and allocation-light: one call runs in well under a
// millisecond (BenchmarkTwinEvaluate pins this), which is what makes
// the twin usable for capacity planning.
package twin

import (
	"fmt"
	"math"
	"sort"

	"attache/internal/copr"
	"attache/internal/tier"
	"attache/internal/workload"
)

// Config is the engine configuration the twin models — the same knobs
// the calibration sweep varies on the simulator side.
type Config struct {
	// Shards is carried for sim parity; the model's metrics are
	// shard-count-invariant (addresses split by hash, counters merge
	// exactly), so it does not enter the equations.
	Shards int `json:"shards"`
	// CIDBits is the Compression ID width (15 in the paper).
	CIDBits int `json:"cid_bits"`
	// Predictor sizes COPR; the zero value takes copr.DefaultConfig,
	// mirroring the engine's own defaulting.
	Predictor copr.Config `json:"-"`
	// DisablePredictor models the BLEM-only engine (always fetch both
	// sub-ranks; reported accuracy is 1 by convention, as in core).
	DisablePredictor bool `json:"disable_predictor,omitempty"`
	// Tier, when non-nil, models a two-tier backend. Only the lru
	// policy has a closed form here; Evaluate rejects others.
	Tier *tier.Config `json:"tier,omitempty"`
}

// Prediction is the twin's output for one (spec, config) point. When
// Tier is set, the headline metrics describe the far (compressed)
// memory — matching what a tiered engine's StatsSnapshot reports —
// and Tier carries the link-model figures.
type Prediction struct {
	// Lines is the expected resident line count (far-tier lines when
	// tiered).
	Lines float64 `json:"lines"`
	// CompressionRatio is the expected fraction of resident lines
	// stored compressed.
	CompressionRatio float64 `json:"compression_ratio"`
	// PredictorAccuracy is COPR's expected read-prediction accuracy.
	PredictorAccuracy float64 `json:"predictor_accuracy"`
	// BandwidthSavings is the expected fraction of 32-byte transfers
	// avoided vs. an uncompressed system (2 blocks per access).
	BandwidthSavings float64 `json:"bandwidth_savings"`
	// Reads are expected successful reads (far reads when tiered);
	// FailedReads the expected never-written read errors; Writes all
	// writes reaching the modeled memory, prefill included.
	Reads       float64 `json:"reads"`
	FailedReads float64 `json:"failed_reads"`
	Writes      float64 `json:"writes"`
	// BlocksRead/BlocksWritten are expected 32-byte sub-rank transfers.
	BlocksRead    float64 `json:"blocks_read"`
	BlocksWritten float64 `json:"blocks_written"`
	// Collisions is the expected number of CID-collision inserts over
	// the run; RAOccupancy the expected collided lines still resident.
	Collisions  float64 `json:"collisions"`
	RAOccupancy float64 `json:"ra_occupancy"`
	// Tier holds the far-link figures for tiered configs.
	Tier *TierPrediction `json:"tier,omitempty"`
}

// TierPrediction is the twin's far-link model output.
type TierPrediction struct {
	NearHitRate   float64 `json:"near_hit_rate"`
	FarReads      float64 `json:"far_reads"`
	FarWrites     float64 `json:"far_writes"`
	Promotions    float64 `json:"promotions"`
	Demotions     float64 `json:"demotions"`
	FarAccesses   float64 `json:"far_accesses"`
	FarLinkBlocks float64 `json:"far_link_blocks"`
	FarLinkBytes  float64 `json:"far_link_bytes"`
	FarLatencyNs  float64 `json:"far_latency_ns"`
}

// segment is one group of statistically identical line addresses.
type segment struct {
	lo, hi    float64 // line-address range [lo, hi)
	prefilled bool

	readOps  float64 // expected read ops landing in the segment
	writeOps float64 // expected client write ops landing in the segment

	// Per-writer per-line intensities, for the time-resolved coverage
	// integral (writers finish at different wall-clock horizons).
	writers []writerLoad

	// Derived occupancy and accuracy.
	exists  float64 // P(line holds data at end of run)
	q       float64 // P(resident line is compressed at end of run)
	qw      float64 // compressed fraction of client-written lines
	qRead   float64 // P(line is compressed as seen by a read mid-run)
	readsOK float64 // expected successful reads
	acc     float64 // COPR accuracy for reads landing here
}

// writerLoad is one client's write pressure on a segment: w expected
// writes per line over the client's whole run, finishing at horizon h
// (seconds). det marks stream writers (deterministic coverage).
type writerLoad struct {
	w, h float64
	det  bool
}

func (s *segment) lines() float64 { return s.hi - s.lo }

// clientShape precomputes one client's address distribution.
type clientShape struct {
	cm  workload.ClientMoments
	pc  float64   // P(write compresses) for the client's payload class
	det bool      // stream: deterministic coverage
	cum []float64 // zipf cumulative page weights (len npages+1), nil otherwise
}

// mass reports the fraction of the client's ops landing in line range
// [lo, hi) of a space of `space` lines.
func (c *clientShape) mass(lo, hi, space float64) float64 {
	if c.cum == nil {
		return (hi - lo) / space
	}
	pl := float64(c.cm.Addr.PageLines)
	npages := float64(len(c.cum) - 1)
	total := c.cum[len(c.cum)-1]
	cumAt := func(addr float64) float64 {
		r := addr / pl
		if r >= npages {
			return total
		}
		k := int(r)
		return c.cum[k] + (r-float64(k))*(c.cum[k+1]-c.cum[k])
	}
	return (cumAt(hi) - cumAt(lo)) / total
}

// Evaluate runs the closed-form model for spec under cfg.
func Evaluate(spec workload.Spec, cfg Config) (Prediction, error) {
	if err := spec.Validate(); err != nil {
		return Prediction{}, err
	}
	if cfg.CIDBits < 1 || cfg.CIDBits > 15 {
		return Prediction{}, fmt.Errorf("twin: CID width %d not in [1,15]", cfg.CIDBits)
	}
	var tcfg tier.Config
	if cfg.Tier != nil {
		if err := cfg.Tier.Validate(); err != nil {
			return Prediction{}, err
		}
		tcfg = cfg.Tier.WithDefaults()
		if tcfg.Policy != tier.PolicyLRU {
			return Prediction{}, fmt.Errorf("twin: tier policy %q has no closed form (only %q is modeled; freq and static are documented divergence areas)", tcfg.Policy, tier.PolicyLRU)
		}
	}
	m := spec.Moments()
	classes := Classes()
	space := float64(m.AddrSpace)
	prefill := float64(m.Prefill)
	pc0 := classes[m.PrefillPayload].PCompress

	shapes := make([]clientShape, len(m.Clients))
	for i, cm := range m.Clients {
		shapes[i] = clientShape{
			cm:  cm,
			pc:  classes[cm.Payload].PCompress,
			det: cm.Addr.Kind == workload.AddrStream,
		}
		if w := cm.Addr.ZipfPageWeights(m.AddrSpace); w != nil {
			cum := make([]float64, len(w)+1)
			for k, v := range w {
				cum[k+1] = cum[k] + v
			}
			shapes[i].cum = cum
		}
	}
	segs := buildSegments(m, shapes)

	// Per-segment occupancy, class mix, and read success. Clients run
	// over different wall-clock horizons (Events/Rate), so both read
	// availability and the read-visible class mix come from integrating
	// coverage over each reader's own horizon — a read early in the run
	// sees the prefill image where a late read sees the overwrite.
	for si := range segs {
		s := &segs[si]
		n := s.lines()
		var qNum, wSum float64
		type readerLoad struct{ r, h float64 }
		var readers []readerLoad
		for ci := range shapes {
			c := &shapes[ci]
			mass := c.mass(s.lo, s.hi, space)
			if mass <= 0 {
				continue
			}
			h := horizon(c.cm)
			if w := c.cm.WriteOps * mass / n; w > 0 {
				s.writers = append(s.writers, writerLoad{w: w, h: h, det: c.det})
				wSum += w
				qNum += w * c.pc
				s.writeOps += c.cm.WriteOps * mass
			}
			if r := c.cm.ReadOps * mass; r > 0 {
				readers = append(readers, readerLoad{r: r, h: h})
				s.readOps += r
			}
		}
		if wSum > 0 {
			s.qw = qNum / wSum
		}
		u0 := unwrittenAt(s.writers, math.Inf(1)) // end state: all writers done
		if s.prefilled {
			s.exists = 1
			s.q = u0*pc0 + (1-u0)*s.qw
		} else {
			s.exists = 1 - u0
			s.q = s.qw
		}
		var okSum, qrNum float64
		for _, rd := range readers {
			avgU := avgUnwritten(s.writers, rd.h)
			if s.prefilled {
				okSum += rd.r
				qrNum += rd.r * (avgU*pc0 + (1-avgU)*s.qw)
			} else {
				ok := rd.r * (1 - avgU)
				okSum += ok
				qrNum += ok * s.qw
			}
		}
		s.readsOK = okSum
		s.qRead = s.q
		if okSum > 0 {
			s.qRead = qrNum / okSum
		}
	}

	// Predictor coverage geometry: trained pages vs table capacities.
	pcfg := cfg.Predictor
	if pcfg.MemorySize == 0 {
		pcfg = copr.DefaultConfig()
	}
	var pagesTouched float64
	for si := range segs {
		s := &segs[si]
		pagesTouched += s.lines() / float64(copr.LinesPerPage) *
			(1 - math.Pow(1-s.exists, float64(copr.LinesPerPage)))
	}
	covL, covP := 0.0, 0.0
	if pagesTouched > 0 {
		if pcfg.EnableLiPR {
			covL = math.Min(1, float64(liprEntries(pcfg))/pagesTouched)
		}
		if pcfg.EnablePaPR {
			covP = math.Min(1, float64(paprEntries(pcfg))/pagesTouched)
		}
	}
	// The GI predicts the global majority: its counters saturate toward
	// the write-weighted compressed fraction of all traffic.
	var qGlobal float64
	for kind, weight := range m.PayloadWeights {
		qGlobal += weight * classes[kind].PCompress
	}
	giUp := counterUp(qGlobal)

	var p Prediction
	pCollide := 1 / float64(uint64(1)<<uint(cfg.CIDBits))
	var accNum float64
	for si := range segs {
		s := &segs[si]
		// The per-page training stream mixes prefill writes, client
		// writes, and read updates; its compressed fraction drives the
		// PaPR counter's steady state.
		prefillW := 0.0
		if s.prefilled {
			prefillW = s.lines()
		}
		qs := s.q
		if den := prefillW + s.writeOps + s.readsOK; den > 0 {
			qs = (prefillW*pc0 + s.writeOps*s.qw + s.readsOK*s.qRead) / den
		}
		s.acc = segAccuracy(qs, s.qRead, covL, covP, pcfg.EnableGI, giUp)
		if cfg.DisablePredictor {
			s.acc = 0 // never fetch speculatively: always 2 blocks/read
			p.BlocksRead += s.readsOK * 2
		} else {
			p.BlocksRead += s.readsOK * (2 - s.qRead*s.acc)
			accNum += s.readsOK * s.acc
		}
		p.Reads += s.readsOK
		p.FailedReads += s.readOps - s.readsOK
		p.Lines += s.lines() * s.exists
		p.CompressionRatio += s.lines() * s.exists * s.q
		p.RAOccupancy += s.lines() * s.exists * (1 - s.q) * pCollide
	}
	if p.Lines > 0 {
		p.CompressionRatio /= p.Lines
	}
	p.PredictorAccuracy = 1
	if !cfg.DisablePredictor && p.Reads > 0 {
		p.PredictorAccuracy = accNum / p.Reads
	}

	p.Writes = prefill
	p.BlocksWritten = prefill * (2 - pc0)
	p.Collisions = prefill * (1 - pc0) * pCollide
	for i := range shapes {
		c := &shapes[i]
		p.Writes += c.cm.WriteOps
		p.BlocksWritten += c.cm.WriteOps * (2 - c.pc)
		p.Collisions += c.cm.WriteOps * (1 - c.pc) * pCollide
	}
	if total := p.Reads + p.Writes; total > 0 {
		p.BandwidthSavings = 1 - (p.BlocksRead+p.BlocksWritten)/(2*total)
	}

	if cfg.Tier != nil {
		applyTier(&p, segs, tcfg, prefill, pc0, pCollide)
	}
	return p, nil
}

// horizon is the client's wall-clock run length in seconds.
func horizon(cm workload.ClientMoments) float64 {
	if cm.MeanRate <= 0 {
		return 1
	}
	return float64(cm.Events) / cm.MeanRate
}

// unwrittenAt is P(a line is still client-unwritten at time t): a
// stream writer at per-line intensity w has deterministically covered
// min(w·frac, 1) of its range frac of the way through its horizon;
// random writers Poissonize (e^{−w·frac}).
func unwrittenAt(writers []writerLoad, t float64) float64 {
	u := 1.0
	for _, w := range writers {
		frac := 1.0
		if t < w.h {
			frac = t / w.h
		}
		done := w.w * frac
		if w.det {
			u *= 1 - math.Min(done, 1)
		} else {
			u *= math.Exp(-done)
		}
	}
	return u
}

// avgUnwritten is the time average of unwrittenAt over a reader's
// horizon (midpoint rule — the integrand is piecewise smooth with at
// most one kink per writer, so a handful of points suffices).
func avgUnwritten(writers []writerLoad, h float64) float64 {
	if len(writers) == 0 {
		return 1
	}
	const steps = 32
	var sum float64
	for i := 0; i < steps; i++ {
		t := h * (float64(i) + 0.5) / steps
		sum += unwrittenAt(writers, t)
	}
	return sum / steps
}

// counterUp is the steady-state probability that a 2-bit saturating
// counter trained by a Bernoulli(q) compressibility stream predicts
// "compressed" (state ≥ 2): the birth–death chain has geometric
// stationary weights ρ^i with ρ = q/(1−q).
func counterUp(q float64) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return 1
	}
	rho := q / (1 - q)
	r2 := rho * rho
	return (r2 + r2*rho) / (1 + rho + r2 + r2*rho)
}

// segAccuracy models COPR for reads landing on a segment whose page
// training stream (prefill + writes + read updates) carries compressed
// fraction qs and whose reads observe compressed fraction qr.
// LiPR-covered reads are exact (stable classes, trained by the storing
// write); PaPR's per-page 2-bit counter sits at counterUp(qs); the
// GI's counter follows the global stream (giUp); the default
// (everything disabled) predicts uncompressed.
func segAccuracy(qs, qr, covL, covP float64, giEnabled bool, giUp float64) float64 {
	up := counterUp(qs)
	paprAcc := up*qr + (1-up)*(1-qr)
	tailAcc := 1 - qr
	if giEnabled {
		tailAcc = giUp*qr + (1-giUp)*(1-qr)
	}
	return covL + (1-covL)*(covP*paprAcc+(1-covP)*tailAcc)
}

// liprEntries / paprEntries mirror copr's internal table geometry:
// 145 bits per LiPR entry (pred + seen vectors, tag, valid), 19 bits
// per PaPR entry (tag + 2-bit counter + valid).
func liprEntries(cfg copr.Config) int { return cfg.LiPRBytes * 8 / 145 }
func paprEntries(cfg copr.Config) int { return cfg.PaPRBytes * 8 / 19 }

// buildSegments partitions the line-address space at the prefill
// boundary and at geometric Zipf page-rank cuts, so each segment's
// lines share (approximately) one access probability per client.
func buildSegments(m workload.SpecMoments, shapes []clientShape) []segment {
	space := float64(m.AddrSpace)
	cuts := []float64{float64(m.Prefill), space}
	for i := range shapes {
		c := &shapes[i]
		if c.cum == nil {
			continue
		}
		pl := float64(c.cm.Addr.PageLines)
		npages := float64(len(c.cum) - 1)
		// Geometric rank ladder: 1, 2, 3, 4, 6, 9, 13, ... pages.
		for r := 1.0; r < npages; {
			cuts = append(cuts, r*pl)
			if n := math.Floor(r * 1.5); n > r {
				r = n
			} else {
				r++
			}
		}
		cuts = append(cuts, npages*pl) // tail past the last reachable page
	}
	sort.Float64s(cuts)
	segs := make([]segment, 0, len(cuts))
	prev := 0.0
	for _, c := range cuts {
		if c <= prev || c > space {
			continue
		}
		segs = append(segs, segment{lo: prev, hi: c, prefilled: c <= float64(m.Prefill)})
		prev = c
	}
	return segs
}

// applyTier rewrites the prediction's headline metrics to describe the
// far (compressed) memory of a two-tier lru backend — matching what a
// tiered engine's StatsSnapshot reports — and attaches the link model.
//
// Mechanics being modeled (see internal/tier): every write to a
// non-resident line write-allocates into the near tier; a full near
// tier demotes its LRU victim with a far writeback; client reads that
// miss near are served by a far read and then promoted. So far writes
// are exactly demotions, and far reads are exactly near read-misses.
func applyTier(p *Prediction, segs []segment, tcfg tier.Config, prefill, pc0, pCollide float64) {
	link := tcfg.Link
	t := &TierPrediction{}

	switch {
	case tcfg.NearLines == 0:
		// Zero-capacity near tier: bit-identical to the untiered engine.
		t.FarReads = p.Reads
		t.FarWrites = p.Writes
		t.FarAccesses = p.Reads + p.Writes
		t.FarLinkBlocks = p.BlocksRead + p.BlocksWritten
	case tcfg.NearLines < 0:
		// Unbounded near tier: every write installs near and nothing is
		// ever demoted, so any readable line is near-resident and the far
		// memory never sees traffic.
		t.NearHitRate = 1
		t.Promotions = p.Writes
		p.Lines, p.CompressionRatio, p.RAOccupancy = 0, 0, 0
		p.Reads, p.Writes = 0, 0
		p.BlocksRead, p.BlocksWritten = 0, 0
		p.BandwidthSavings, p.Collisions = 0, 0
		p.PredictorAccuracy = 1
	default:
		applyTierFinite(p, segs, float64(tcfg.NearLines), prefill, pc0, pCollide, t)
	}

	t.FarLinkBytes = t.FarLinkBlocks * 32 * link.FarBandwidthMult
	t.FarLatencyNs = t.FarAccesses * link.FarLatencyNs
	p.Tier = t
}

// applyTierFinite is the capacity-pressured case: Che's approximation
// over the unified access stream gives the near hit curve.
func applyTierFinite(p *Prediction, segs []segment, capacity, prefill, pc0, pCollide float64, t *TierPrediction) {
	// Prefill phase: P write-allocates in address order; once the near
	// tier fills, each install demotes the LRU victim (the oldest
	// prefill line). Residents at run start are the last min(P,C) lines.
	preResident := math.Min(prefill, capacity)
	demPre := math.Max(0, prefill-capacity)
	resLo, resHi := prefill-preResident, prefill

	// Run phase: per-segment access totals and distinct lines touched.
	var accTotal float64
	for si := range segs {
		accTotal += segs[si].readsOK + segs[si].writeOps
	}
	type segTier struct {
		acc, touched, pLine, resFrac float64
	}
	st := make([]segTier, len(segs))
	classes := make([]lruClass, 0, len(segs))
	for si := range segs {
		s := &segs[si]
		a := s.readsOK + s.writeOps
		if a <= 0 || accTotal <= 0 {
			continue
		}
		n := s.lines()
		touched := n * -math.Expm1(-a/n)
		overlap := math.Max(0, math.Min(s.hi, resHi)-math.Max(s.lo, resLo))
		st[si] = segTier{
			acc:     a,
			touched: touched,
			pLine:   a / touched / accTotal,
			resFrac: overlap / n,
		}
		classes = append(classes, lruClass{lines: touched, p: st[si].pLine})
	}
	ct := cheT(classes, capacity)

	// Misses: cold (first touch, unless pre-resident and still warm)
	// plus steady-state Che misses on re-references. Every miss
	// promotes; demotions absorb what free room cannot.
	var missTotal, farReads, farReadBlocks, farAccNum float64
	var touchedTotal, qTouchNum, occSteady, occCompressed float64
	for si := range segs {
		s := &segs[si]
		d := &st[si]
		if d.acc <= 0 {
			continue
		}
		h := cheHit(d.pLine, ct)
		misses := d.touched*(1-d.resFrac*h) + (d.acc-d.touched)*(1-h)
		missTotal += misses
		fr := misses * s.readsOK / d.acc
		farReads += fr
		farReadBlocks += fr * (2 - s.q*s.acc)
		farAccNum += fr * s.acc
		touchedTotal += d.touched
		qTouchNum += d.touched * s.q
		occSteady += d.touched * h
		occCompressed += d.touched * h * s.q
	}
	freeRoom := capacity - preResident
	demRun := math.Max(0, missTotal-freeRoom)
	qTouch := 0.0
	if touchedTotal > 0 {
		qTouch = qTouchNum / touchedTotal
	}
	// Demotion victims: stale prefill residents go first (coldest), then
	// the cold tail of client traffic.
	demFromPre := math.Min(demRun, preResident)
	demFromRun := demRun - demFromPre

	t.Promotions = prefill + missTotal
	t.Demotions = demPre + demRun
	t.FarReads = farReads
	t.FarWrites = t.Demotions
	t.FarAccesses = farReads + t.Demotions
	if accTotal > 0 {
		t.NearHitRate = 1 - missTotal/accTotal
	}

	farWriteBlocks := (demPre+demFromPre)*(2-pc0) + demFromRun*(2-qTouch)
	t.FarLinkBlocks = farReadBlocks + farWriteBlocks

	// Headline metrics now describe the far memory only.
	nearEnd := math.Min(capacity, preResident-demFromPre+occSteady)
	nearCompressed := math.Min(nearEnd, (preResident-demFromPre)*pc0+occCompressed)
	farLines := math.Max(0, p.Lines-nearEnd)
	farCompressed := math.Max(0, p.Lines*p.CompressionRatio-nearCompressed)
	p.Lines = farLines
	p.CompressionRatio = 0
	if farLines > 0 {
		p.CompressionRatio = math.Min(1, farCompressed/farLines)
	}
	p.RAOccupancy = math.Max(0, farLines-farCompressed) * pCollide
	p.Reads = farReads
	p.Writes = t.Demotions
	p.BlocksRead = farReadBlocks
	p.BlocksWritten = farWriteBlocks
	p.Collisions = ((demPre+demFromPre)*(1-pc0) + demFromRun*(1-qTouch)) * pCollide
	p.BandwidthSavings = 0
	if total := p.Reads + p.Writes; total > 0 {
		p.BandwidthSavings = 1 - (p.BlocksRead+p.BlocksWritten)/(2*total)
	}
	p.PredictorAccuracy = 1
	if farReads > 0 {
		p.PredictorAccuracy = farAccNum / farReads
	}
}
