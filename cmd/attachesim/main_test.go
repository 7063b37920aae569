package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"attache/internal/exp"
)

// sim runs the CLI in-process and returns its exit code and streams.
func sim(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

func mustSim(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errs := sim(args...)
	if code != 0 {
		t.Fatalf("attachesim %v: exit %d\n%s", args, code, errs)
	}
	return out
}

func TestListIsTheRegistryInPaperOrder(t *testing.T) {
	want := []string{"fig1", "fig2", "fig4", "fig5", "fig8", "tab1", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "compare", "energy", "predictors", "copr-anatomy", "systems"}
	lines := strings.Split(strings.TrimSpace(mustSim(t, "-list")), "\n")
	var got []string
	for _, l := range lines[1:] { // after the heading
		id, title, _ := strings.Cut(strings.TrimSpace(l), " ")
		got = append(got, id)
		if e, ok := exp.Lookup(id); !ok || strings.TrimSpace(title) != e.Title {
			t.Errorf("-list line %q is not an id and its title", l)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("-list printed %v, want %v", got, want)
	}
}

// TestFormatMarkdownRendersEveryExperiment: -format markdown prints each
// experiment as a "## title" heading and its markdown table, in list
// order.
func TestFormatMarkdownRendersEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	out := mustSim(t, "-scale", "0.05", "-format", "markdown")
	rest := out
	for _, e := range exp.Experiments() {
		heading := "## " + e.Title + "\n\n| benchmark | " + strings.Join(e.Columns, " | ") + " |\n"
		_, after, ok := strings.Cut(rest, heading)
		if !ok {
			t.Fatalf("no %s section, in order, in:\n%s", e.ID, out)
		}
		rest = after
	}
	if !strings.Contains(out, "| §I: COPR SRAM (KB) | 368.000 | 368.000 | 1.000 |\n") {
		t.Errorf("compare's markdown lacks the §I row:\n%s", out)
	}
}

// FuzzExperimentList: the -experiment grammar never panics, a list it
// accepts is the experiments its ids name, in order, and "all" is the
// registry. Of the seeds, ",fig1" and "all,fig1" are refused (neither ""
// nor "all" names an experiment in a list), " fig1 " is fig1 (ids are
// trimmed), and "fig1,fig1" runs fig1 twice.
func FuzzExperimentList(f *testing.F) {
	for _, s := range []string{",fig1", " fig1 ", "all,fig1", "fig1,fig1", "all"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		exps, err := experimentList(list)
		want := exp.Experiments()
		if list != "all" {
			want = nil
			for _, id := range strings.Split(list, ",") {
				e, _ := exp.Lookup(strings.TrimSpace(id))
				want = append(want, e)
			}
		}
		sameIDs := slices.EqualFunc(exps, want, func(a, b exp.Experiment) bool { return a.ID == b.ID })
		if err == nil && !sameIDs || list == "all" && err != nil {
			t.Fatalf("%q resolved to %d experiments (%v), want %d", list, len(exps), err, len(want))
		}
	})
}

func TestBadInputExitsTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"experiment":      {"-experiment", "fig99"},
		"format":          {"-experiment", "fig2", "-format", "xml"},
		"seed":            {"-experiment", "fig2", "-seeds", "42,x"},
		"check level":     {"-experiment", "fig2", "-check", "paranoid"},
		"flag":            {"-no-such-flag"},
		"compressibility": {"-trace", "unread", "-compressibility", "1.5"},
	} {
		code, out, errs := sim(args...)
		if code != 2 || out != "" || !strings.Contains(errs, "attachesim") {
			t.Errorf("bad %s: exit %d, stdout %q, stderr %q; want exit 2 and only a diagnostic", name, code, out, errs)
		}
	}
	if code, _, _ := sim("-trace", filepath.Join(t.TempDir(), "missing")); code != 1 {
		t.Errorf("unreadable trace: exit %d, want 1", code)
	}
}

// TestScaleIsValidated: a scale that is not a positive finite number is a
// bad value, and one below the shortest run says that it ran the shortest.
func TestScaleIsValidated(t *testing.T) {
	for _, v := range []string{"0", "-1", "NaN", "Inf", "-Inf"} {
		code, out, errs := sim("-experiment", "fig12", "-scale", v)
		if code != 2 || out != "" || !strings.HasPrefix(errs, "attachesim: -scale must be") {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want exit 2 and only a diagnostic", v, code, out, errs)
		}
	}
	// 500 references per core is scale 0.0417.
	args := []string{"-trace", writeTrace(t), "-experiment", "systems", "-format", "csv", "-scale"}
	code, floored, note := sim(append(args, "0.001")...)
	if code != 0 || strings.Count(note, "\n") != 1 || !strings.Contains(note, "-scale 0.001 is below the shortest run; running 500 references per core") {
		t.Errorf("-scale 0.001: exit %d, stderr %q; want a run and one note naming the 500-reference floor", code, note)
	}
	code, atFloor, note := sim(append(args, "0.0417")...)
	if code != 0 || note != "" || atFloor != floored {
		t.Errorf("-scale 0.0417: exit %d, stderr %q; want silence and the floored run's table\n%s\nvs\n%s", code, note, atFloor, floored)
	}
}

// TestVerboseReportsWarmImages: -v closes with the warm-image cache's own
// account — one build per workload, every other simulation a hit. The
// cache is the process's, so the line counts from the start of the test
// binary; the seed is one no other test warms.
func TestVerboseReportsWarmImages(t *testing.T) {
	before := exp.WarmStats()
	code, _, errs := sim("-experiment", "fig12", "-scale", "0.05", "-seeds", "977", "-format", "csv", "-v")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errs)
	}
	lines := strings.Split(strings.TrimSpace(errs), "\n")
	var got exp.WarmCacheStats
	var resident float64
	var bound int64
	if _, err := fmt.Sscanf(lines[len(lines)-1], "warm images: %d built, %d hits, %d evicted, %f of %d MiB resident",
		&got.Builds, &got.Hits, &got.Evictions, &resident, &bound); err != nil {
		t.Fatalf("closing line %q: %v", lines[len(lines)-1], err)
	}
	after := exp.WarmStats()
	if got.Builds != after.Builds || got.Hits != after.Hits || got.Evictions != after.Evictions ||
		bound != after.BoundBytes>>20 || resident <= 0 || resident > float64(bound) {
		t.Errorf("closing line %q disagrees with exp.WarmStats() = %+v", lines[len(lines)-1], after)
	}
	workloads := uint64(len(exp.NewHarness(1).Workloads()))
	if built := after.Builds - before.Builds; built != workloads || after.Hits == before.Hits {
		t.Errorf("%d images built and %d hits for %d workloads; want one build each and hits", built, after.Hits-before.Hits, workloads)
	}
}

// TestUnwritableMemprofileExitsOne: the heap profile is written on the
// way out, after the work succeeded; failing to write it must still fail
// the run, and must not mask an earlier failure's code.
func TestUnwritableMemprofileExitsOne(t *testing.T) {
	unwritable := filepath.Join(t.TempDir(), "no-such-dir", "heap.prof")
	code, out, errs := sim("-list", "-memprofile", unwritable)
	if code != 1 || !strings.Contains(out, "fig12") || !strings.Contains(errs, "no-such-dir") {
		t.Errorf("unwritable -memprofile: exit %d, stderr %q; want the listing, exit 1 and the path named", code, errs)
	}
	if code, _, _ := sim("-experiment", "fig99", "-memprofile", unwritable); code != 2 {
		t.Errorf("bad experiment with unwritable -memprofile: exit %d, want 2", code)
	}
	written := filepath.Join(t.TempDir(), "heap.prof")
	mustSim(t, "-list", "-memprofile", written)
	if fi, err := os.Stat(written); err != nil || fi.Size() == 0 {
		t.Errorf("writable -memprofile left no profile: %v", err)
	}
}

// TestParallelismDoesNotChangeOutput drives a default-configuration
// sweep and a configuration sweep through the real CLI.
func TestParallelismDoesNotChangeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweeps")
	}
	args := []string{"-experiment", "fig11,fig16", "-scale", "0.05", "-format", "csv"}
	serial := mustSim(t, append(args, "-parallel", "1")...)
	par := mustSim(t, append(args, "-parallel", "4")...)
	if serial != par {
		t.Fatalf("-parallel 1 and -parallel 4 differ\n--- 1 ---\n%s--- 4 ---\n%s", serial, par)
	}
	if !strings.HasPrefix(serial, "# fig11\nbenchmark,accuracy\n") || !strings.Contains(serial, "\n# fig16\nbenchmark,lru,drrip,ship\n") {
		t.Fatalf("unexpected csv shape:\n%s", serial)
	}
}

func TestOutWritesBothRenderings(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	out := mustSim(t, "-experiment", "fig2", "-out", dir, "-format", "csv")
	txt, err := os.ReadFile(filepath.Join(dir, "fig2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	csvFile, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(txt), "== Fig 2") {
		t.Errorf("fig2.txt is not the aligned table:\n%s", txt)
	}
	if out != "# fig2\n"+string(csvFile)+"\n" {
		t.Errorf("fig2.csv differs from the csv printed to stdout:\n%s\nvs\n%s", csvFile, out)
	}
}

// writeTrace records a deterministic 60 000-access trace spread over a
// 64 MB footprint (8x the LLC), reads and writes with varied gaps.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gen.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# generated: 60000 accesses over a 64 MB footprint")
	x := uint64(12345)
	for i := 0; i < 60000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		op := "R"
		if x>>61 < 3 {
			op = "W"
		}
		fmt.Fprintf(w, "%s 0x%x %d\n", op, (x>>20)%(64<<20)&^63, 1+(x>>50)%20)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// systemsRows renders the `systems` csv the way attachereplay printed its
// table: cycles, speedup, bytes moved, read latency per system.
func systemsRows(t *testing.T, out string) []string {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(strings.TrimPrefix(out, "# systems\n"))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, r := range recs[1:] {
		var v [4]float64
		for i := range v {
			if v[i], err = strconv.ParseFloat(r[i+1], 64); err != nil {
				t.Fatal(err)
			}
		}
		rows = append(rows, fmt.Sprintf("%-10s %12d %8.3fx %12d %8.0fc", r[0], int64(v[0]), v[1], int64(v[2]), v[3]))
	}
	return rows
}

// TestTraceReproducesAttachereplay pins -trace against the command it
// replaced: the rows below are what the last attachereplay build printed
// for `-trace gen.trace -seed 42 -accesses 600` on writeTrace's trace,
// and -scale 0.05 is 600 references per core.
func TestTraceReproducesAttachereplay(t *testing.T) {
	path := writeTrace(t)
	want := []string{
		"baseline          14683    1.000x        37312      328c",
		"mdcache           17925    0.819x        73248      415c",
		"ecc-meta          14663    1.001x        37312      330c",
		"attache           15703    0.935x        36352      346c",
		"ideal             10946    1.341x        28320      253c",
	}
	args := []string{"-trace", path, "-experiment", "systems", "-scale", "0.05", "-format", "csv"}
	for _, par := range []string{"1", "4"} {
		got := systemsRows(t, mustSim(t, append(args, "-parallel", par)...))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("-parallel %s:\n%s\nwant attachereplay's\n%s", par, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}

	// -seeds subsumes attachereplay's -seed: seed 1337 alone ran attache
	// in 15189 cycles and ideal in 11315, and the harness averages.
	got := systemsRows(t, mustSim(t, append(args, "-seeds", "42,1337")...))
	for row, cycles := range map[int]int{3: (15703 + 15189) / 2, 4: (10946 + 11315) / 2} {
		if f := strings.Fields(got[row]); f[1] != strconv.Itoa(cycles) {
			t.Errorf("-seeds 42,1337: %s ran %s cycles, want the two seeds' mean %d", f[0], f[1], cycles)
		}
	}

	// Every other figure takes the trace as its one workload.
	fig12 := mustSim(t, "-trace", path, "-experiment", "fig12", "-scale", "0.05", "-format", "csv")
	recs, err := csv.NewReader(strings.NewReader(strings.TrimPrefix(fig12, "# fig12\n"))).ReadAll()
	if err != nil || len(recs) != 3 || recs[1][0] != "gen.trace" || recs[2][0] != "mean" {
		t.Fatalf("fig12 on a trace: want one gen.trace row and the mean row, got %v (%v)", recs, err)
	}
	for i, col := range []int{1, 3, 4} { // mdcache, attache, ideal speedups in want
		if v, _ := strconv.ParseFloat(recs[1][i+1], 64); fmt.Sprintf("%.3fx", v) != strings.Fields(want[col])[2] {
			t.Errorf("fig12 %s speedup = %.3f, want %s", recs[0][i+1], v, strings.Fields(want[col])[2])
		}
	}
}
