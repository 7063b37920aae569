package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/shard"
)

func TestParseQuota(t *testing.T) {
	q, err := parseQuota("5000")
	if err != nil || q != (cluster.Quota{Rate: 5000}) {
		t.Fatalf("parseQuota(5000) = %+v, %v", q, err)
	}
	q, err = parseQuota("1000:2000")
	if err != nil || q != (cluster.Quota{Rate: 1000, Burst: 2000}) {
		t.Fatalf("parseQuota(1000:2000) = %+v, %v", q, err)
	}
	for _, bad := range []string{"", "fast", "-5", "100:-1", "100:nope", "NaN", "Inf", "100:NaN", "100:+Inf"} {
		if _, err := parseQuota(bad); err == nil {
			t.Errorf("parseQuota(%q) accepted", bad)
		}
	}
}

// FuzzParseQuotas: parseQuotas never panics, and every quota it accepts
// is finite and non-negative — a NaN would admit its tenant without
// limit.
func FuzzParseQuotas(f *testing.F) {
	for _, s := range []string{"hog=1000:2000, vip=50", "acme=NaN", "acme=Inf", "acme=5:NaN", "acme=1:-Inf", "a=1e400", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		qs, err := parseQuotas(s)
		if err != nil {
			return
		}
		for tenant, q := range qs {
			for _, v := range []float64{q.Rate, q.Burst} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("parseQuotas(%q) accepted tenant %q with quota %+v", s, tenant, q)
				}
			}
		}
	})
}

// FuzzParseClasses: parseClasses never panics, and every class it
// accepts is one of the three it names.
func FuzzParseClasses(f *testing.F) {
	for _, s := range []string{"vip=gold, batch=best-effort, mid=silver", "vip=NaN", "vip=Inf", "vip=platinum", "=gold", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cs, err := parseClasses(s)
		if err != nil {
			return
		}
		for tenant, c := range cs {
			switch c {
			case cluster.ClassGold, cluster.ClassSilver, cluster.ClassBestEffort:
			default:
				t.Fatalf("parseClasses(%q) accepted tenant %q with class %q", s, tenant, c)
			}
		}
	})
}

func TestParseQuotas(t *testing.T) {
	qs, err := parseQuotas("hog=1000:2000, vip=50")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs["hog"] != (cluster.Quota{Rate: 1000, Burst: 2000}) || qs["vip"] != (cluster.Quota{Rate: 50}) {
		t.Fatalf("parseQuotas = %+v", qs)
	}
	if qs, err := parseQuotas(""); err != nil || qs != nil {
		t.Fatalf("empty spec = %+v, %v, want nil map", qs, err)
	}
	for _, bad := range []string{"hog", "=100", "hog=oops", "hog=1,=2"} {
		if _, err := parseQuotas(bad); err == nil {
			t.Errorf("parseQuotas(%q) accepted", bad)
		}
	}
}

func TestParseClasses(t *testing.T) {
	cs, err := parseClasses("vip=gold, batch=best-effort, mid=silver")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 || cs["vip"] != cluster.ClassGold || cs["batch"] != cluster.ClassBestEffort || cs["mid"] != cluster.ClassSilver {
		t.Fatalf("parseClasses = %+v", cs)
	}
	if cs, err := parseClasses(""); err != nil || cs != nil {
		t.Fatalf("empty spec = %+v, %v, want nil map", cs, err)
	}
	for _, bad := range []string{"vip", "=gold", "vip=platinum"} {
		if _, err := parseClasses(bad); err == nil {
			t.Errorf("parseClasses(%q) accepted", bad)
		}
	}
}

// TestWriteSnapshotFile: the drain snapshot lands atomically (no .tmp
// residue) and restores, and a doomed path fails without side effects.
func TestWriteSnapshotFile(t *testing.T) {
	cl, err := cluster.New(core.DefaultOptions(), shard.Config{Shards: 2}, 1, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	line := make([]byte, core.LineSize)
	if res, err := cl.DoCtx(t.Context(), []shard.Op{{Write: true, Addr: 1, Data: line}}); err != nil || res[0].Err != nil {
		t.Fatal(err, res)
	}

	path := filepath.Join(t.TempDir(), "drain.snap")
	if err := writeSnapshotFile(cl, path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	re, err := cluster.RestoreFrom(f, shard.Config{}, cluster.Config{})
	if err != nil {
		t.Fatalf("written snapshot does not restore: %v", err)
	}
	re.Close()

	if err := writeSnapshotFile(cl, filepath.Join(t.TempDir(), "missing", "x.snap")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestMain runs the test binary as the daemon itself when
// ATTACHED_FULL_DISK is set, with the file-size limit at 4 KiB and SIGXFSZ
// ignored: a longer write then fails with EFBIG, as on a full disk.
func TestMain(m *testing.M) {
	if os.Getenv("ATTACHED_FULL_DISK") == "" {
		os.Exit(m.Run())
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: 4096, Max: 4096}); err != nil {
		panic(err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	main()
}

// TestDrainSnapshotOnFullDisk drives a real daemon whose drain snapshot
// cannot be written: it exits non-zero saying why, the earlier snapshot at
// the path is unchanged, and no temp file is left.
func TestDrainSnapshotOnFullDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.snap")
	if err := os.WriteFile(path, []byte("earlier"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-shards", "1", "-snapshot-on-drain", path)
	cmd.Env = append(os.Environ(), "ATTACHED_FULL_DISK=1")
	stderr, err := cmd.StderrPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for lines := bufio.NewScanner(stderr); lines.Scan(); {
		if out.WriteString(lines.Text() + "\n"); strings.Contains(lines.Text(), "msg=serving") {
			cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	err = cmd.Wait()
	got, rerr := os.ReadFile(path)
	if _, terr := os.Stat(path + ".tmp"); err == nil || !strings.Contains(out.String(), "file too large") || string(got) != "earlier" || !os.IsNotExist(terr) {
		t.Fatalf("daemon %v; %q (%v) at the path; temp file %v; log:\n%s", cmd.ProcessState, got, rerr, terr, out.String())
	}
}
