package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The op stream engineOrder decodes. An op is one byte, its low three bits
// the kind, followed by one Δ byte per time it names; a stream that ends
// inside an op reads zeros.
//
//	0–3  schedule one event at now+Δ
//	4    schedule a parent at now+Δ whose callback schedules 1+(op>>3)&3
//	     children, each at its own now+Δ — Schedule from inside a running event
//	5    Step
//	6    Run(now+Δ); a negative bound drains, as Run documents
//	7    drain with RunUntilDone
//
// A Δ byte is a class (high three bits) and an argument (low five).
const (
	dNegative = iota // −1−arg: Schedule clamps to now
	dZero            // 0
	dOne             // 1
	dSmall           // 2+arg below 16; else (arg−15)·251, up to 4 016: crosses bitmap words and the wheel's wrap
	dLast            // horizon−1, the farthest slot
	dHorizon         // horizon, the nearest overflow
	dBeyond          // horizon+1
	dFar             // 2·horizon + arg·1000: more than a full turn ahead
)

func delta(b byte) Time {
	arg := Time(b & 31)
	switch b >> 5 {
	case dNegative:
		return -1 - arg
	case dZero:
		return 0
	case dOne:
		return 1
	case dSmall:
		if arg < 16 {
			return 2 + arg
		}
		return (arg - 15) * 251
	case dLast:
		return horizon - 1
	case dHorizon:
		return horizon
	case dBeyond:
		return horizon + 1
	}
	return 2*horizon + arg*1000
}

// Builders for the named streams below.
func d(class, arg byte) byte  { return class<<5 | arg }
func schedule(dt byte) []byte { return []byte{0, dt} }
func nested(parent byte, kids ...byte) []byte {
	return append([]byte{4 | byte(len(kids)-1)<<3, parent}, kids...)
}
func step() []byte         { return []byte{5} }
func runTo(dt byte) []byte { return []byte{6, dt} }
func drain() []byte        { return []byte{7} }

func stream(ops ...[]byte) []byte {
	var s []byte
	for _, op := range ops {
		s = append(s, op...)
	}
	return s
}

// modelEvent is one pending event of the reference model.
type modelEvent struct {
	at   Time
	id   int
	kids []byte // Δ bytes its callback schedules
}

// engineOrder runs data's ops against an Engine and against the model — a
// slice stable-sorted by time, so ties stay in insertion order — and fails
// at the first event, count or clock on which they part. It also holds the
// heap to its one job: a schedule grows it iff it lands horizon or more
// cycles ahead.
func engineOrder(t testing.TB, data []byte) {
	e := NewEngine()
	var (
		model  []modelEvent
		nextID int
		fired  uint64
		bound  Time = -1 // the running Run's exclusive bound
	)
	read := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}

	var sched func(dt Time, kids []byte)
	fire := func(id int, now Time) {
		if len(model) == 0 {
			t.Fatalf("event %d ran at %d; the model has nothing pending", id, now)
		}
		want := model[0]
		model = model[1:]
		if want.id != id || want.at != now || e.Now() != now {
			t.Fatalf("event %d ran at %d (clock %d); the model runs event %d at %d", id, now, e.Now(), want.id, want.at)
		}
		if bound >= 0 && now >= bound {
			t.Fatalf("Run(%d) ran event %d at %d", bound, id, now)
		}
		fired++
		for _, k := range want.kids {
			sched(delta(k), nil)
		}
	}
	sched = func(dt Time, kids []byte) {
		id := nextID
		nextID++
		heap := len(e.overflow)
		e.Schedule(e.Now()+dt, func(now Time) { fire(id, now) })
		if dt < 0 {
			dt = 0
		}
		if dt >= horizon {
			heap++
		}
		if len(e.overflow) != heap {
			t.Fatalf("a schedule %d cycles ahead left %d events in the overflow heap, want %d", dt, len(e.overflow), heap)
		}
		model = append(model, modelEvent{at: e.Now() + dt, id: id, kids: kids})
		sort.SliceStable(model, func(i, j int) bool { return model[i].at < model[j].at })
	}
	drained := func(op string) {
		if len(model) != 0 || e.Pending() != 0 || e.Scheduled() != e.Steps() {
			t.Fatalf("after %s: model holds %d, Pending() = %d, Scheduled() = %d, Steps() = %d",
				op, len(model), e.Pending(), e.Scheduled(), e.Steps())
		}
	}

	for len(data) > 0 {
		op := read()
		switch op & 7 {
		default:
			sched(delta(read()), nil)
		case 4:
			dt := delta(read())
			kids := make([]byte, 1+(op>>3)&3)
			for i := range kids {
				kids[i] = read()
			}
			sched(dt, kids)
		case 5:
			was, pending := fired, len(model) > 0
			if ran := e.Step(); ran != pending || (fired == was+1) != pending {
				t.Fatalf("Step() = %v and ran %d events with %v pending", ran, fired-was, pending)
			}
		case 6:
			was := fired
			bound = e.Now() + delta(read())
			n := e.Run(bound)
			if n != fired-was {
				t.Fatalf("Run(%d) = %d, ran %d events", bound, n, fired-was)
			}
			if bound < 0 {
				drained("Run(negative)")
			} else if len(model) > 0 && model[0].at < bound {
				t.Fatalf("Run(%d) stopped at %d with event %d due at %d", bound, e.Now(), model[0].id, model[0].at)
			}
			bound = -1
		case 7:
			if !e.RunUntilDone(1 << 20) {
				t.Fatal("RunUntilDone hit its cap")
			}
			drained("a drain")
		}
		if e.Pending() != len(model) {
			t.Fatalf("Pending() = %d, the model holds %d", e.Pending(), len(model))
		}
	}
	e.Run(-1)
	drained("the final drain")
	if e.Steps() != fired {
		t.Fatalf("Steps() = %d, %d events ran", e.Steps(), fired)
	}
}

// orderSeeds are the named streams: each is both a table case and a file of
// FuzzEngineOrder's checked-in corpus.
var orderSeeds = map[string][]byte{
	// X goes to the heap for cycle 4096; A's callback, at cycle 1, then
	// schedules Y straight into 4096's slot. X came first and runs first
	// only if it reached the slot before A ran.
	"far-then-near-same-cycle": stream(
		schedule(d(dHorizon, 0)),
		nested(d(dOne, 0), d(dLast, 0), d(dHorizon, 0)),
		drain()),
	// Run(10) executes cycle 2, which brings cycle 4097's event onto the
	// wheel, and stops; later schedules for 4097 (direct), 4098 (heap) and
	// 3 then interleave with it.
	"run-stops-between-migration-and-cycle": stream(
		schedule(d(dBeyond, 0)),
		schedule(d(dSmall, 0)),
		runTo(d(dSmall, 8)),
		schedule(d(dLast, 0)),
		schedule(d(dHorizon, 0)),
		schedule(d(dOne, 0)),
		runTo(d(dLast, 0)),
		schedule(d(dZero, 0)),
		drain()),
	// Nothing on the wheel: the clock jumps two turns to the heap's top,
	// and the same jump brings in what is within reach of it.
	"overflow-only-past-a-full-turn": stream(
		schedule(d(dFar, 0)),
		schedule(d(dFar, 1)),
		schedule(d(dFar, 0)),
		schedule(d(dFar, 9)),
		step(),
		schedule(d(dNegative, 3)),
		step(), step(), step(),
		runTo(d(dNegative, 31)),
		schedule(d(dFar, 2)),
		drain()),
	// Slot 1 serves cycle 1, then 4097 by a direct insert once cycle 1 has
	// drained; the parent at cycle 2 schedules into its own slot's next
	// tenant (through the heap) and behind itself in the current cycle.
	"slot-reused-one-turn-later": stream(
		schedule(d(dOne, 0)),
		schedule(d(dBeyond, 0)),
		step(),
		schedule(d(dHorizon, 0)),
		schedule(d(dZero, 0)),
		nested(d(dOne, 0), d(dHorizon, 0), d(dZero, 0), d(dLast, 0)),
		schedule(d(dLast, 0)),
		drain(),
		schedule(d(dLast, 0)),
		schedule(d(dOne, 0)),
		drain()),
	// Spans that cross bitmap words and the wheel's wrap, several turns.
	"strides-across-words-and-wrap": stream(
		schedule(d(dSmall, 31)), schedule(d(dSmall, 16)), schedule(d(dSmall, 20)),
		runTo(d(dSmall, 18)),
		nested(d(dSmall, 30), d(dSmall, 30), d(dSmall, 29), d(dNegative, 0), d(dBeyond, 0)),
		schedule(d(dSmall, 15)), schedule(d(dLast, 0)),
		step(), step(),
		schedule(d(dSmall, 31)), schedule(d(dSmall, 24)),
		runTo(d(dFar, 0)),
		nested(d(dLast, 0), d(dLast, 0)),
		nested(d(dHorizon, 0), d(dLast, 0), d(dOne, 0)),
		drain()),
}

func TestEngineOrder(t *testing.T) {
	for name, data := range orderSeeds {
		t.Run(name, func(t *testing.T) {
			engineOrder(t, data)
			file := filepath.Join("testdata", "fuzz", "FuzzEngineOrder", name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if got, err := os.ReadFile(file); err != nil || string(got) != want {
				t.Errorf("%s is not this stream (%v); it should hold\n%s", file, err, want)
			}
		})
	}
	// A long arbitrary stream: every op and Δ class, unevenly.
	t.Run("mixed", func(t *testing.T) {
		data := make([]byte, 1<<14)
		x := uint32(21)
		for i := range data {
			x = x*1664525 + 1013904223
			data[i] = byte(x >> 24)
		}
		engineOrder(t, data)
	})
}

// FuzzEngineOrder holds the calendar queue to the model on arbitrary op
// streams; `go test` runs the corpus under testdata/fuzz.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { engineOrder(t, data) })
}
