// Command attachesim regenerates every table and figure of the Attaché
// paper's evaluation (MICRO 2018) on the built-in simulator.
//
// Usage:
//
//	attachesim -list
//	attachesim -experiment fig12
//	attachesim -experiment fig12,fig13 -scale 2 -seeds 42,1337 -v
//	attachesim -experiment all
//	attachesim -scale 0.05 -format markdown > report.md
//	attachesim -trace mytrace.txt -compressibility 0.5 -experiment systems
//
// Scale multiplies the per-core memory-reference count (default 12000);
// the paper's shapes are stable from scale 1 upward. Results are printed
// as aligned tables with a final mean row where the paper reports an
// average.
//
// Simulations fan out with at most -parallel executing at once (default:
// all CPUs). Runs are deterministic and aggregated in a fixed order, so
// the tables are byte-identical at any parallelism. -cpuprofile/-memprofile
// write pprof profiles for performance work.
//
// -trace replaces the workload catalog with a recorded memory trace, the
// bring-your-own-workload entry point: every experiment then runs on it,
// each core replaying its own copy (rate mode, looping for the run
// length). One access per line, '#' comments allowed:
//
//	R 0x7f001040 12     # read byte address 0x7f001040, 12 instrs after previous
//	W 104896            # write, default gap 1
//
// A trace records addresses but not data, so the compressibility of the
// address space is modeled: -compressibility sets the fraction of lines
// that compress to <=30 bytes and -homogeneity how strongly that clusters
// by 4KB page.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"attache/internal/config"
	"attache/internal/exp"
	"attache/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code: 1 for runtime errors, 2 for bad flags, ids or values.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("attachesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment id(s), comma separated, or 'all'")
		scale      = fs.Float64("scale", 1.0, "run-length multiplier (1.0 = 12000 memory references per core)")
		seeds      = fs.String("seeds", "42", "comma-separated RNG seeds; results are averaged")
		verbose    = fs.Bool("v", false, "print one line per completed simulation run")
		list       = fs.Bool("list", false, "list experiment ids with their titles and exit")
		format     = fs.String("format", "table", "output format: table, csv or markdown")
		outDir     = fs.String("out", "", "also write each result to <dir>/<id>.txt and <id>.csv")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent simulations (results are identical at any value)")
		checkMode  = fs.String("check", "off", "runtime checking: off, invariants, or oracle (validates the simulation; results are unchanged)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		tracePath  = fs.String("trace", "", "run the experiments on this recorded trace instead of the workload catalog")
		comp       = fs.Float64("compressibility", 0.5, "with -trace: fraction of lines compressible to <=30B")
		homog      = fs.Float64("homogeneity", 0.8, "with -trace: probability a 4KB page is uniformly compressible")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "attachesim: "+format+"\n", a...)
		return code
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(1, "%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, "%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			// A profile that was asked for and not written fails the
			// run; an earlier failure keeps its own code.
			if err := writeHeapProfile(*memProfile); err != nil {
				fail(1, "%v", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	if !(*scale > 0) || math.IsInf(*scale, 1) { // NaN fails every comparison
		return fail(2, "-scale must be a positive finite number, got %v", *scale)
	}
	h := exp.NewHarness(*scale)
	if h.AccessesPerCore > int64(exp.RefsPerCore**scale) { // NewHarness's floor
		fmt.Fprintf(stderr, "attachesim: -scale %v is below the shortest run; running %d references per core\n", *scale, h.AccessesPerCore)
	}
	h.Parallelism = *parallel
	lvl, err := config.ParseCheckLevel(*checkMode)
	if err != nil {
		return fail(2, "%v", err)
	}
	h.Cfg.Check = lvl

	if *list {
		fmt.Fprintln(stdout, "available experiments (id, title):")
		for _, e := range exp.Experiments() {
			fmt.Fprintf(stdout, "  %-13s %s\n", e.ID, e.Title)
		}
		return 0
	}

	h.Seeds = nil
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fail(2, "bad seed %q: %v", s, err)
		}
		h.Seeds = append(h.Seeds, v)
	}
	if *verbose {
		h.Progress = func(msg string) { fmt.Fprintln(stderr, msg) }
		defer func() {
			const mib = 1 << 20
			w := exp.WarmStats()
			fmt.Fprintf(stderr, "warm images: %d built, %d hits, %d evicted, %.1f of %d MiB resident\n",
				w.Builds, w.Hits, w.Evictions, float64(w.ResidentBytes)/mib, w.BoundBytes/mib)
		}()
	}

	if *tracePath != "" {
		if *comp < 0 || *comp > 1 || *homog < 0 || *homog > 1 {
			return fail(2, "-compressibility and -homogeneity must be in [0,1]")
		}
		f, err := os.Open(*tracePath)
		if err != nil {
			return fail(1, "%v", err)
		}
		ft, err := trace.ParseTrace(f)
		f.Close()
		if err != nil {
			return fail(1, "%s: %v", *tracePath, err)
		}
		h.Trace = &exp.TraceWorkload{Name: filepath.Base(*tracePath), Recording: ft,
			Compressibility: *comp, Homogeneity: *homog}
	}

	exps, err := experimentList(*experiment)
	if err != nil {
		return fail(2, "%v (try -list)", err)
	}
	if *format != "table" && *format != "csv" && *format != "markdown" {
		return fail(2, "unknown format %q (want table, csv or markdown)", *format)
	}
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(h)
		if err != nil {
			return fail(1, "%s failed: %v", e.ID, err)
		}
		switch *format {
		case "csv":
			fmt.Fprintf(stdout, "# %s\n%s\n", e.ID, tab.CSV())
		case "markdown":
			fmt.Fprintf(stdout, "## %s\n\n%s\n", tab.Title, tab.Markdown())
		default:
			fmt.Fprintln(stdout, tab.String())
			fmt.Fprintf(stdout, "(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return fail(1, "%v", err)
			}
			for ext, content := range map[string]string{".txt": tab.String(), ".csv": tab.CSV()} {
				path := filepath.Join(*outDir, e.ID+ext)
				if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
					return fail(1, "%v", err)
				}
			}
		}
	}
	return 0
}

// experimentList resolves -experiment: "all", or ids separated by commas.
func experimentList(list string) (exps []exp.Experiment, err error) {
	if list == "all" {
		return exp.Experiments(), nil
	}
	for _, id := range strings.Split(list, ",") {
		e, ok := exp.Lookup(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", strings.TrimSpace(id))
		}
		exps = append(exps, e)
	}
	return exps, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle live objects before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
