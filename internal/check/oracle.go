package check

import (
	"bytes"

	"attache/internal/copr"
	"attache/internal/core"
	"attache/internal/sim"
)

// DataModel supplies the actual bytes of every line, so the oracle can
// run the real compression/scrambling/BLEM machinery instead of the
// timing simulator's boolean classification. trace.DataModel implements
// it; the experiment harness's region router forwards to it.
type DataModel interface {
	LineInto(lineAddr uint64, buf []byte) []byte
}

// Oracle is the differential oracle for one Attaché memory system. The
// timing simulator models Attaché with booleans (compressed? collided?);
// the oracle shadows every request with the functional framework — the
// line's real bytes are compressed, scrambled, and blended through BLEM —
// and with an ideal oracle-metadata memory that stores the raw bytes.
// After every read the two flows must agree bit-for-bit.
//
// It also mirrors the timing simulator's COPR with its own predictor,
// replaying exactly the Predict/Update/Train sequence the simulator is
// specified to perform. Any dropped or reordered training call in the
// simulator makes the two predictors disagree on a later prediction,
// which the oracle reports with the (address, cycle) of that read.
//
// Note on collisions: the timing simulator's LineModel.CIDCollides is a
// probability-matched hash, deliberately not the functional BLEM's
// scrambled-data collision (DESIGN.md §4), so the oracle validates each
// flow against its own ground truth and never equates the two collision
// bits.
type Oracle struct {
	rec *Recorder
	dm  DataModel
	// fw is the Attaché flow under test. Its own predictor is disabled:
	// the shadow predictor below mirrors the *simulator's* training
	// sequence instead, which is the thing being validated.
	fw     *core.Framework
	shadow *copr.Predictor

	// stored holds the Attaché-side physical images; ideal holds the
	// oracle-metadata flow's raw lines. Both are materialized lazily on
	// first access (DRAM content before the first write is unobservable
	// by software, so the first access defines it).
	stored map[uint64]core.StoredLine
	ideal  map[uint64][core.LineSize]byte

	// collided tracks every address whose store collided with the CID,
	// for the Replacement-Area conservation invariant: RA bits in use
	// must exactly equal observed collisions.
	collided map[uint64]bool

	buf [core.LineSize]byte // scratch for DataModel.LineInto
}

// NewOracle builds an oracle. coprCfg must be the same predictor
// configuration the simulated system runs; seed must be the framework
// seed (CID value and scrambler key derive from it).
func NewOracle(rec *Recorder, dm DataModel, cidBits int, seed int64, coprCfg copr.Config) (*Oracle, error) {
	fw, err := core.New(core.Options{CIDBits: cidBits, Seed: seed, DisablePredictor: true})
	if err != nil {
		return nil, err
	}
	return &Oracle{
		rec:      rec,
		dm:       dm,
		fw:       fw,
		shadow:   copr.New(coprCfg),
		stored:   make(map[uint64]core.StoredLine),
		ideal:    make(map[uint64][core.LineSize]byte),
		collided: make(map[uint64]bool),
	}, nil
}

// ensure materializes the stored image and ideal copy of lineAddr on
// first touch, running the full Attaché store path on the line's real
// bytes.
func (o *Oracle) ensure(lineAddr uint64, now sim.Time) {
	if _, ok := o.stored[lineAddr]; ok {
		return
	}
	o.store(lineAddr, now)
}

// store runs the Attaché write flow and the ideal write flow on the same
// line content.
func (o *Oracle) store(lineAddr uint64, now sim.Time) {
	line := o.dm.LineInto(lineAddr, o.buf[:])
	st, _, err := o.fw.Store(lineAddr, line)
	if err != nil {
		o.rec.Failf(lineAddr, now, "attaché store failed: %v", err)
		return
	}
	o.stored[lineAddr] = st
	var raw [core.LineSize]byte
	copy(raw[:], line)
	o.ideal[lineAddr] = raw
	if st.Collision {
		o.collided[lineAddr] = true
	}
	// Conservation: every Replacement-Area bit in use corresponds to
	// exactly one observed collision insert, and vice versa.
	if got, want := o.fw.Blem.ReplacementArea().Len(), len(o.collided); got != want {
		o.rec.Failf(lineAddr, now, "replacement-area bits in use (%d) != observed CID collisions (%d)", got, want)
	}
}

// OnWrite shadows one simulated Attaché write: it stores through both
// flows, asserts the functional compression outcome matches the timing
// model's ground truth, and trains the shadow predictor exactly as the
// simulator's write path is specified to (train with the known outcome;
// no prediction is consulted).
func (o *Oracle) OnWrite(lineAddr uint64, simCompressed bool, now sim.Time) {
	o.store(lineAddr, now)
	if st, ok := o.stored[lineAddr]; ok && st.Compressed != simCompressed {
		o.rec.Failf(lineAddr, now,
			"compression outcome diverges on write: functional store compressed=%v, timing model compressed=%v",
			st.Compressed, simCompressed)
	}
	o.shadow.Train(lineAddr*core.LineSize, simCompressed)
}

// OnReadIssue shadows the prediction point of one simulated Attaché
// read. simPredicted and simActual are the values the simulator just
// computed; the oracle asserts they match its shadow predictor and the
// functional ground truth, then runs the full read flow of both systems
// and compares the returned bytes bit-for-bit.
func (o *Oracle) OnReadIssue(lineAddr uint64, simPredicted, simActual bool, now sim.Time) {
	o.ensure(lineAddr, now)

	// BLEM ground truth vs the timing model's classification.
	st := o.stored[lineAddr]
	if st.Compressed != simActual {
		o.rec.Failf(lineAddr, now,
			"compression outcome diverges on read: functional BLEM stored compressed=%v, timing model compressed=%v",
			st.Compressed, simActual)
	}

	// The shadow predictor replays the simulator's specified training
	// sequence; its prediction must therefore equal the simulator's.
	shadowPred, _ := o.shadow.Predict(lineAddr * core.LineSize)
	if shadowPred != simPredicted {
		o.rec.Failf(lineAddr, now,
			"COPR prediction diverges: simulator predicted compressed=%v, oracle predictor says %v (training sequence drift)",
			simPredicted, shadowPred)
	}

	// Attaché flow vs ideal oracle-metadata flow, bit for bit.
	got, tr, err := o.fw.Load(lineAddr, st)
	if err != nil {
		o.rec.Failf(lineAddr, now, "attaché read flow failed: %v", err)
		return
	}
	want := o.ideal[lineAddr]
	if !bytes.Equal(got, want[:]) {
		o.rec.Failf(lineAddr, now,
			"returned line data diverges from ideal oracle-metadata system (first differing byte %d)",
			firstDiff(got, want[:]))
		return
	}
	// COPR-corrected outcome: after BLEM reveals the truth, the
	// controller's view must equal ground truth regardless of the guess.
	if tr.ActualCompressed != st.Compressed {
		o.rec.Failf(lineAddr, now,
			"BLEM ground truth diverges from stored outcome: load saw compressed=%v, store produced %v",
			tr.ActualCompressed, st.Compressed)
	}
}

// OnReadComplete shadows the training point of one simulated Attaché
// read: the simulator updates COPR when the data (and with it BLEM's
// ground truth) returns.
func (o *Oracle) OnReadComplete(lineAddr uint64, simActual bool, now sim.Time) {
	o.shadow.Update(lineAddr*core.LineSize, simActual)
}

// Finish runs the end-of-simulation conservation checks.
func (o *Oracle) Finish(now sim.Time) {
	if got, want := o.fw.Blem.ReplacementArea().Len(), len(o.collided); got != want {
		o.rec.Failf(0, now, "replacement-area bits in use (%d) != observed CID collisions (%d)", got, want)
	}
}

// Lines reports how many distinct lines the oracle has materialized.
func (o *Oracle) Lines() int { return len(o.stored) }

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
