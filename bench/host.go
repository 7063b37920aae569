package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// hostInfo says where a results file was measured; numbers from
// different hosts do not compare.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// Outside a git checkout (the PR driver's copy) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// warmUpFor is how long warmUpCPU spins. A process that starts on an
// idle sandbox runs at about half speed at first (measured: 50 ms per
// unit of work for 1.2 s, then 25 ms); without the spin the set-ups,
// which come first, are timed on the slow stretch and swing twofold.
const warmUpFor = 1500 * time.Millisecond

// warmUpCPU keeps the process's one thread busy for warmUpFor.
func warmUpCPU() {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < warmUpFor; {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	warmUpSink = x
}

var warmUpSink uint64 // keeps the spin from being optimised away
