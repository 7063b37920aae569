package trace

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestParseTraceBasic(t *testing.T) {
	in := `
# a comment
R 0x1000
W 4096 12
read 0x2040 3
ST 128
`
	ft, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 4 {
		t.Fatalf("len = %d, want 4", ft.Len())
	}
	a := ft.Next()
	if a.LineAddr != 0x1000/64 || a.Store || a.Gap != 1 {
		t.Fatalf("access 1 = %+v", a)
	}
	a = ft.Next()
	if a.LineAddr != 64 || !a.Store || a.Gap != 12 {
		t.Fatalf("access 2 = %+v", a)
	}
	a = ft.Next()
	if a.LineAddr != 0x2040/64 || a.Store {
		t.Fatalf("access 3 = %+v", a)
	}
	a = ft.Next()
	if !a.Store || a.LineAddr != 2 {
		t.Fatalf("access 4 = %+v", a)
	}
	// Loops.
	a = ft.Next()
	if a.LineAddr != 0x1000/64 {
		t.Fatal("trace did not loop")
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"",                 // empty
		"R",                // missing address
		"X 0x1000",         // unknown op
		"R zzz",            // bad address
		"R 0x10 0",         // bad gap
		"R 0x10 1 extra x", // too many fields
	}
	for _, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

// TestFileTraceClones: clones share the recording but not the cursor, so
// one parse serves every core — concurrently (run under -race) — and the
// parent stays where it was.
func TestFileTraceClones(t *testing.T) {
	parent, err := ParseTrace(strings.NewReader("R 0\nR 64\nR 128\n"))
	if err != nil {
		t.Fatal(err)
	}
	parent.Next() // clones start where the parent stands: at line 1
	var wg sync.WaitGroup
	for steps := 1; steps <= 7; steps++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := parent.Clone()
			var got uint64
			for i := 0; i < steps; i++ {
				got = c.Next().LineAddr
			}
			if want := uint64(steps % 3); got != want {
				t.Errorf("clone after %d steps read line %d, want %d", steps, got, want)
			}
		}()
	}
	wg.Wait()
	if got := parent.Next().LineAddr; got != 1 {
		t.Fatalf("parent read line %d after its clones advanced, want 1", got)
	}
}

func TestFileTraceIsSource(t *testing.T) {
	var _ Source = &FileTrace{}
	var _ Source = &Generator{}
}

// Fuzz-ish robustness: random byte soup must never panic the parser.
func TestParseTraceRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		for i := range buf {
			// Mostly printable with occasional control bytes.
			if rng.Intn(10) == 0 {
				buf[i] = byte(rng.Intn(256))
			} else {
				buf[i] = byte(32 + rng.Intn(95))
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseTrace panicked on %q: %v", buf, r)
				}
			}()
			ParseTrace(strings.NewReader(string(buf)))
		}()
	}
}

func TestParseTraceLargeAddresses(t *testing.T) {
	ft, err := ParseTrace(strings.NewReader("R 0xffffffffffc0\nW 0xFFFFFFFFFFFF 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a := ft.Next(); a.LineAddr != 0xffffffffffc0/64 {
		t.Fatalf("addr = %#x", a.LineAddr)
	}
}
