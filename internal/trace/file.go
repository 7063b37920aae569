package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Source produces a core's memory-access stream. Generator (synthetic)
// and FileTrace (recorded) both implement it.
type Source interface {
	Next() Access
}

// FileTrace replays a recorded memory trace. The text format has one
// access per line:
//
//	R 0x1a2b3c [gap]
//	W 453988 [gap]
//
// where the address is a byte address (hex with 0x prefix, or decimal),
// and the optional gap is the instruction distance from the previous
// access (default 1). Lines starting with '#' and blank lines are
// ignored. The trace loops when exhausted, so cores can replay it for
// any access budget.
type FileTrace struct {
	accesses []Access
	pos      int
}

// ParseTrace reads a trace from r.
func ParseTrace(r io.Reader) (*FileTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var accesses []Access
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("trace: line %d: want 'R|W addr [gap]', got %q", lineNo, line)
		}
		var store bool
		switch strings.ToUpper(fields[0]) {
		case "R", "L", "LD", "READ":
			store = false
		case "W", "S", "ST", "WRITE":
			store = true
		default:
			return nil, fmt.Errorf("trace: line %d: unknown op %q", lineNo, fields[0])
		}
		addr, err := strconv.ParseUint(strings.TrimPrefix(strings.ToLower(fields[1]), "0x"),
			base(fields[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address %q: %v", lineNo, fields[1], err)
		}
		gap := int64(1)
		if len(fields) == 3 {
			gap, err = strconv.ParseInt(fields[2], 10, 64)
			if err != nil || gap < 1 {
				return nil, fmt.Errorf("trace: line %d: bad gap %q", lineNo, fields[2])
			}
		}
		accesses = append(accesses, Access{
			LineAddr: addr / LineSize,
			Store:    store,
			Gap:      gap,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if len(accesses) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return &FileTrace{accesses: accesses}, nil
}

func base(s string) int {
	if strings.HasPrefix(strings.ToLower(s), "0x") {
		return 16
	}
	return 10
}

// Len reports the number of recorded accesses.
func (f *FileTrace) Len() int { return len(f.accesses) }

// Next returns the next access, looping at the end of the recording.
func (f *FileTrace) Next() Access {
	a := f.accesses[f.pos]
	f.pos++
	if f.pos == len(f.accesses) {
		f.pos = 0
	}
	return a
}

// Clone returns an independent cursor at f's position over the same
// recording; the accesses are shared and never written, so clones may
// replay concurrently.
func (f *FileTrace) Clone() *FileTrace {
	c := *f
	return &c
}
