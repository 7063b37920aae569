package main

import (
	"os"
	"path/filepath"
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
	for _, bad := range []string{"", "fast", "-5", "100:-1", "100:nope"} {
		if _, err := parseQuota(bad); err == nil {
			t.Errorf("parseQuota(%q) accepted", bad)
		}
	}
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
