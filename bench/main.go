// Command bench is the repository's one benchmark: six named workloads
// over the serving stack and the simulator, end-to-end metrics from an
// untraced run and per-layer metrics from a separate traced pass that
// times calls into each layer's public functions from outside.
//
//	go -C bench run . [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-out dir]
//	go -C bench run . -compare A.json B.json
//
// See README.md for every workload and metric and the reason it exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// resultsFile is where a run appends its records, under -out.
const resultsFile = "results.json"

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all six): "+strings.Join(workloadNames(), ", "))
		seed         = flag.Int64("seed", goldenSeed, "seeds the input generator only; the program under test never sees it")
		seconds      = flag.Float64("seconds", 10, "length of the timed run of each workload")
		trace        = flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics and spans) instead of the untraced run")
		out          = flag.String("out", "out", "directory to append results.json to and write trace.<workload>.json in; empty writes nothing")
		compare      = flag.Bool("compare", false, "compare two results files given as arguments: base first, change second")
		updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenFile+" from a sim-sweep run at seed 42 (run from the bench directory)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results files: base change")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	if *updateGolden {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	names := workloadNames()
	if *workloadName != "" {
		if !slices.Contains(names, *workloadName) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %s\n", *workloadName, strings.Join(names, ", "))
			return 2
		}
		names = []string{*workloadName}
	}

	// One P: the benchmark is one thread that is always busy (loadClients
	// in run.go says why), on every workload and in both passes.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	host := fingerprint()
	warmUpCPU()
	allCorrect := true
	for _, name := range names {
		rec, spans, err := runWorkload(ctx, name, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		allCorrect = allCorrect && rec.Correct
		printRecord(os.Stdout, rec)
		if *out != "" {
			if err := appendResults(*out, host, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if spans != nil {
				if err := writeJSON(filepath.Join(*out, "trace."+name+".json"), spans); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
		}
		// The machine-readable result, last on standard output.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted uint64            `json:"attempted"`
			Failed    uint64            `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	if !allCorrect {
		fmt.Fprintln(os.Stderr, "bench: verification failed")
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(servingWorkloads)+1)
	for _, w := range servingWorkloads {
		names = append(names, w.name)
	}
	return append(names, simSweepName)
}

// runWorkload is one run: untraced (end-to-end metrics) or traced
// (per-layer metrics and the spans behind them).
func runWorkload(ctx context.Context, name string, seed int64, seconds float64, traced bool) (*record, *traceFile, error) {
	if traced {
		return runTraced(ctx, name, seed, seconds)
	}
	if name == simSweepName {
		rec, err := runSimSweep(seed, seconds)
		return rec, nil, err
	}
	rec, err := runServing(ctx, findServing(name), seed, seconds)
	return rec, nil, err
}

// printRecord lists every metric by name with its unit, then the notes.
func printRecord(w *os.File, rec *record) {
	pass := "untraced"
	if rec.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s  (%s, seed %d, %gs)  correct=%v attempted=%d failed=%d\n",
		rec.Workload, pass, rec.Seed, rec.Seconds, rec.Correct, rec.Attempted, rec.Failed)
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(rec.Notes) {
		fmt.Fprintf(w, "  # %s: %v\n", k, rec.Notes[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultsDoc is the results file: who measured, and every run appended.
type resultsDoc struct {
	Host hostInfo  `json:"host"`
	Runs []*record `json:"runs"`
}

func readResults(path string) (*resultsDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// appendResults adds rec to dir/results.json, so that repeated
// invocations build up the sets -compare takes quartiles over.
func appendResults(dir string, host hostInfo, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, resultsFile)
	doc, err := readResults(path)
	if os.IsNotExist(err) {
		doc, err = &resultsDoc{}, nil
	}
	if err != nil {
		return err
	}
	doc.Host = host
	doc.Runs = append(doc.Runs, rec)
	return writeJSON(path, doc)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
