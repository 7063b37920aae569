package workload

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"attache/internal/core"
	"attache/internal/loadgen"
)

// TestComposeDeterministic: same spec, same stream — byte for byte,
// three times over, for every preset scenario. Distinct seeds diverge.
func TestComposeDeterministic(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := Preset(name, 42, 400)
			if err != nil {
				t.Fatal(err)
			}
			first, err := Compose(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				again, err := Compose(spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("recompose %d diverged from first composition", i+2)
				}
			}
			other, err := Compose(Spec{
				Name: spec.Name, Seed: 43, AddrSpace: spec.AddrSpace,
				Prefill: spec.Prefill, Clients: spec.Clients,
			})
			if err != nil {
				t.Fatal(err)
			}
			if loadgen.Checksum(first) == loadgen.Checksum(other) {
				t.Fatal("distinct seeds produced identical streams")
			}
			if OpChecksum(first) == OpChecksum(other) {
				t.Fatal("distinct seeds produced identical op content")
			}
		})
	}
}

// TestComposeMergeOrder: the merged stream is sorted by arrival offset.
func TestComposeMergeOrder(t *testing.T) {
	spec, err := Preset("write-burst", 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	events, err := Compose(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 500 {
		t.Fatalf("events: got %d, want 500", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("event %d arrives at %v, before predecessor's %v", i, events[i].At, events[i-1].At)
		}
	}
}

// TestComposeAddressesBounded: every generated address stays inside the
// spec's space, for every address-pattern generator.
func TestComposeAddressesBounded(t *testing.T) {
	for _, name := range Names() {
		spec, err := Preset(name, 11, 300)
		if err != nil {
			t.Fatal(err)
		}
		events, err := Compose(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			for _, op := range ev.Ops {
				if op.Addr >= spec.AddrSpace {
					t.Fatalf("%s: event %d address %d outside space %d", name, i, op.Addr, spec.AddrSpace)
				}
				if op.Write && len(op.Data) != core.LineSize {
					t.Fatalf("%s: event %d write payload %dB, want %d", name, i, len(op.Data), core.LineSize)
				}
				if !op.Write && op.Data != nil {
					t.Fatalf("%s: event %d read op carries data", name, i)
				}
			}
		}
	}
}

// TestComposeClientIndependence: a client's sub-stream is a function of
// its (seed, index) alone — composing client B alongside A leaves A's
// events untouched, just interleaved. A's solo stream must be a
// subsequence of the merged stream.
func TestComposeClientIndependence(t *testing.T) {
	a := ClientSpec{
		Name: "a", Events: 200,
		Arrival: Arrival{Process: Poisson, Rate: 1000},
		Mix:     Mix{ReadWeight: 3, WriteWeight: 1, BatchWeight: 1, BatchSize: 4},
		Addr:    AddrPattern{Kind: AddrUniform},
		Payload: PayloadMixed,
	}
	b := ClientSpec{
		Name: "b", Events: 150,
		Arrival: Arrival{Process: GammaProc, Rate: 800, Shape: 2},
		Mix:     Mix{ReadWeight: 1, WriteWeight: 1, BatchWeight: 0},
		Addr:    AddrPattern{Kind: AddrStream},
		Payload: PayloadCompressible,
	}
	base := Spec{Name: "solo", Seed: 99, AddrSpace: 1 << 12, Prefill: -1}

	solo := base
	solo.Clients = []ClientSpec{a}
	soloEvents, err := Compose(solo)
	if err != nil {
		t.Fatal(err)
	}
	merged := base
	merged.Clients = []ClientSpec{a, b}
	mergedEvents, err := Compose(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(mergedEvents) != a.Events+b.Events {
		t.Fatalf("merged events: got %d, want %d", len(mergedEvents), a.Events+b.Events)
	}
	j := 0
	for _, ev := range mergedEvents {
		if j < len(soloEvents) && reflect.DeepEqual(ev, soloEvents[j]) {
			j++
		}
	}
	if j != len(soloEvents) {
		t.Fatalf("client a's solo stream is not a subsequence of the merged stream: matched %d/%d events", j, len(soloEvents))
	}
}

// TestOpChecksumIgnoresOffsets: shifting every arrival time changes the
// full-stream checksum but not the op checksum — the property replay
// verification rests on, since recorded offsets are wall-clock.
func TestOpChecksumIgnoresOffsets(t *testing.T) {
	spec, err := Preset("streaming", 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	events, err := Compose(spec)
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]loadgen.Event, len(events))
	copy(shifted, events)
	for i := range shifted {
		shifted[i].At += time.Duration(i+1) * time.Millisecond
	}
	if OpChecksum(events) != OpChecksum(shifted) {
		t.Fatal("OpChecksum changed when only arrival offsets moved")
	}
	if loadgen.Checksum(events) == loadgen.Checksum(shifted) {
		t.Fatal("full Checksum ignored arrival offsets")
	}
}

// TestValidate: the first structural problem is reported, valid specs
// pass.
func TestValidate(t *testing.T) {
	ok := ClientSpec{
		Name: "c", Events: 10,
		Arrival: Arrival{Process: Poisson, Rate: 100},
		Mix:     Mix{ReadWeight: 1},
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr bool
	}{
		{"valid", func(s *Spec) {}, false},
		{"zero space", func(s *Spec) { s.AddrSpace = 0 }, true},
		{"no clients", func(s *Spec) { s.Clients = nil }, true},
		{"zero events", func(s *Spec) { s.Clients[0].Events = 0 }, true},
		{"zero rate", func(s *Spec) { s.Clients[0].Arrival.Rate = 0 }, true},
		{"negative shape", func(s *Spec) {
			s.Clients[0].Arrival = Arrival{Process: GammaProc, Rate: 1, Shape: -1}
		}, true},
		{"zero mix", func(s *Spec) { s.Clients[0].Mix = Mix{} }, true},
		{"negative weight", func(s *Spec) { s.Clients[0].Mix = Mix{ReadWeight: -1, WriteWeight: 2} }, true},
		{"zipf s too small", func(s *Spec) {
			s.Clients[0].Addr = AddrPattern{Kind: AddrZipf, ZipfS: 0.9}
		}, true},
		{"zipf s default ok", func(s *Spec) {
			s.Clients[0].Addr = AddrPattern{Kind: AddrZipf}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Name: "v", Seed: 1, AddrSpace: 64, Clients: []ClientSpec{ok}}
			tc.mutate(&spec)
			err := spec.Validate()
			if tc.wantErr && err == nil {
				t.Fatal("want error, got nil")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("want ok, got %v", err)
			}
		})
	}
}

// TestPayloadGenerators: every payload builder emits full deterministic
// lines with its advertised compressibility character.
func TestPayloadGenerators(t *testing.T) {
	kinds := []PayloadKind{PayloadMixed, PayloadCompressible, PayloadPointer, PayloadHostile, PayloadZero}
	for _, k := range kinds {
		pay := payloadFunc(k)
		a, b := pay(42, 7), pay(42, 7)
		if len(a) != core.LineSize {
			t.Fatalf("%s: line is %dB, want %d", k, len(a), core.LineSize)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: payload not deterministic", k)
		}
	}
	if !bytes.Equal(zeroLine(9, 9), make([]byte, core.LineSize)) {
		t.Fatal("zero payload is not all-zero")
	}
	if bytes.Equal(hostileLine(1, 0), hostileLine(3, 0)) {
		t.Fatal("hostile payload identical across addresses")
	}
}

// TestEnvelope: the rate envelope floors at 0.05 (traffic slows, never
// stops) and defaults to 1 with no periods.
func TestEnvelope(t *testing.T) {
	if f := envelopeAt(nil, time.Second); f != 1 {
		t.Fatalf("empty envelope: got %g, want 1", f)
	}
	deep := []Period{{Period: 4 * time.Second, Amplitude: -10}}
	if f := envelopeAt(deep, time.Second); f != 0.05 {
		t.Fatalf("trough floor: got %g, want 0.05", f)
	}
	peak := []Period{{Period: 4 * time.Second, Amplitude: 0.5}}
	if f := envelopeAt(peak, time.Second); f <= 1.49 || f >= 1.51 {
		t.Fatalf("peak: got %g, want ~1.5", f)
	}
}

// TestPresets: the catalogue is complete, described, and rejects unknown
// names.
func TestPresets(t *testing.T) {
	names := Names()
	want := []string{"compression-hostile", "pointer-chasing", "streaming", "tiered-hotset", "write-burst", "zipfian-hot-page"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Fatalf("%s: empty description", n)
		}
		spec, err := Preset(n, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: default preset invalid: %v", n, err)
		}
		total := 0
		for _, c := range spec.Clients {
			total += c.Events
		}
		if total != 2000 {
			t.Fatalf("%s: default event budget %d, want 2000", n, total)
		}
	}
	if _, err := Preset("no-such-scenario", 1, 10); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestPrefillPayloadMatchesFirstClient: scenario prefill writes the same
// compressibility class the first client traffics in.
func TestPrefillPayloadMatchesFirstClient(t *testing.T) {
	spec, err := Preset("compression-hostile", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	pre := PrefillPayload(spec)
	if !bytes.Equal(pre(17), hostileLine(17, 0)) {
		t.Fatal("prefill payload does not match the first client's payload kind")
	}
	if !bytes.Equal(pre(17), pre(17)) {
		t.Fatal("prefill payload not deterministic")
	}
}
