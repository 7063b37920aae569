package exp

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"attache/internal/cache"
	"attache/internal/config"
	"attache/internal/trace"
)

// reset empties the cache, so the next run of any key is a cold one.
func (c *warmCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries, c.bytes = nil, 0
}

// resident reports the built images and checks the cache's own account of
// them against the bound.
func (c *warmCache) resident(t *testing.T) []*warmEntry {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var built []*warmEntry
	var sum int64
	for _, e := range c.entries {
		if e.size > 0 {
			built = append(built, e)
			sum += e.size
		}
	}
	if sum != c.bytes || c.bytes > warmCacheBytes {
		t.Fatalf("cache accounts %d bytes for entries summing to %d, bound %d", c.bytes, sum, warmCacheBytes)
	}
	return built
}

// fakeImage is an image charged n bytes that costs almost none: the
// charge per generator is 5 KiB, a nil one is a word.
func fakeImage(n int64) *warmImage {
	return &warmImage{gens: make([]*trace.Generator, n/generatorBytes)}
}

// evictAll pushes every resident image out the way a sweep would: by
// building another that needs the room.
func (c *warmCache) evictAll() {
	c.get(warmKey{seed: -1}, func() *warmImage { return fakeImage(warmCacheBytes) })
}

// warmTestConfig keeps a cold warm-up near 3 ms: all 8 cores (MIX1 needs
// them) in front of a 1 MiB LLC. The images of Table II's geometry are
// exercised by TestGolden, whose every run after a workload's first is a hit.
func warmTestConfig(check config.CheckLevel) config.Config {
	cfg := config.Default()
	cfg.CPU.LLCBytes = 1 << 20
	cfg.Check = check
	return cfg
}

func workloadProfiles(t *testing.T, name string, cores int) []trace.Profile {
	t.Helper()
	if m, ok := mixByName(name); ok {
		profs, err := MixProfiles(m)
		if err != nil {
			t.Fatal(err)
		}
		return profs
	}
	p, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return RateMode(p, cores)
}

// coldAndHit is the equality test the cache answers to: rc from an empty
// cache, then rc again off the image the first run left, which mutate (if
// not nil) may damage in between. Anything the image gets wrong shows as
// a difference between the two Metrics.
func coldAndHit(t *testing.T, rc RunConfig, mutate func(*warmImage)) (cold, hit Metrics, hitErr error) {
	t.Helper()
	warmImages.reset()
	cold, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	stored := warmImages.resident(t)
	if len(stored) != 1 {
		t.Fatalf("a cold run left %d images, want 1", len(stored))
	}
	if mutate != nil {
		mutate(stored[0].img)
	}
	hit, hitErr = Run(rc)
	if again := warmImages.resident(t); len(again) != 1 || again[0] != stored[0] {
		t.Fatal("the second run did not use the first run's image")
	}
	return cold, hit, hitErr
}

// TestWarmImageIsInvisible: whether a run warms its LLC itself, restores
// an image, or restores one that was evicted and built again, it reports
// the same Metrics — for every memory system, in rate mode and for a mix,
// with checking off and fully on (where a hit is also audited).
func TestWarmImageIsInvisible(t *testing.T) {
	kinds := []config.SystemKind{config.SystemBaseline, config.SystemMDCache, config.SystemAttache,
		config.SystemIdeal, config.SystemECC}
	for _, workload := range []string{"mcf", "MIX1"} {
		for _, kind := range kinds {
			for _, level := range []config.CheckLevel{config.CheckOff, config.CheckOracle} {
				t.Run(fmt.Sprintf("%s/%v/check=%d", workload, kind, level), func(t *testing.T) {
					cfg := warmTestConfig(level)
					rc := RunConfig{Cfg: cfg, Kind: kind, Profiles: workloadProfiles(t, workload, cfg.CPU.Cores),
						AccessesPerCore: 400, Seed: 42}
					cold, hit, err := coldAndHit(t, rc, nil)
					if err != nil {
						t.Fatalf("hit: %v", err)
					}
					if hit != cold {
						t.Fatalf("a hit differs from the cold run:\n%+v\n%+v", hit, cold)
					}
					first := warmImages.resident(t)[0]
					warmImages.evictAll()
					for _, e := range warmImages.resident(t) {
						if e == first {
							t.Fatal("the image survived eviction")
						}
					}
					for _, what := range []string{"rebuild", "hit on the rebuilt image"} {
						m, err := Run(rc)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if m != cold {
							t.Fatalf("%s differs from the cold run:\n%+v\n%+v", what, m, cold)
						}
					}
				})
			}
		}
	}
}

// TestWarmImageConcurrentRuns: simulations running at once — a parallel
// sweep's cells — share one image, one of them building it while the
// others wait, and each reports what it reports alone. Under -race this
// is the check that restoring an image only reads it.
func TestWarmImageConcurrentRuns(t *testing.T) {
	cfg := warmTestConfig(config.CheckOff)
	rc := func(kind config.SystemKind) RunConfig {
		return RunConfig{Cfg: cfg, Kind: kind, Profiles: workloadProfiles(t, "MIX1", cfg.CPU.Cores),
			AccessesPerCore: 400, Seed: 9}
	}
	kinds := []config.SystemKind{config.SystemBaseline, config.SystemMDCache, config.SystemAttache, config.SystemIdeal}
	alone := make([]Metrics, len(kinds))
	for i, k := range kinds {
		warmImages.reset()
		var err error
		if alone[i], err = Run(rc(k)); err != nil {
			t.Fatal(err)
		}
	}
	warmImages.reset()
	together := make([]Metrics, 2*len(kinds))
	errs := make([]error, len(together))
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = Run(rc(kinds[i%len(kinds)]))
		}()
	}
	wg.Wait()
	for i, m := range together {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if m != alone[i%len(kinds)] {
			t.Errorf("%v run beside 7 others differs from the same run alone", kinds[i%len(kinds)])
		}
	}
	if n := len(warmImages.resident(t)); n != 1 {
		t.Errorf("8 concurrent runs of one workload left %d images, want 1", n)
	}
}

// TestWarmKeySeparatesInputs: an image is served only to a run whose
// warm-up would have read the same inputs.
func TestWarmKeySeparatesInputs(t *testing.T) {
	base, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*trace.Profile){
		"Suite":            func(p *trace.Profile) { p.Suite = "gap" },
		"Pattern":          func(p *trace.Profile) { p.Pattern = trace.PatternRandom },
		"Stride":           func(p *trace.Profile) { p.Stride++ },
		"FootprintBytes":   func(p *trace.Profile) { p.FootprintBytes *= 2 },
		"CompressibleFrac": func(p *trace.Profile) { p.CompressibleFrac += 0.01 },
		"PageHomogeneity":  func(p *trace.Profile) { p.PageHomogeneity += 0.01 },
		"StoreFrac":        func(p *trace.Profile) { p.StoreFrac += 0.01 },
		"MeanGap":          func(p *trace.Profile) { p.MeanGap++ },
		"HotProb":          func(p *trace.Profile) { p.HotProb += 0.01 },
		"HotFrac":          func(p *trace.Profile) { p.HotFrac += 0.01 },
		"SpatialBurst":     func(p *trace.Profile) { p.SpatialBurst++ },
		"DataSeed":         func(p *trace.Profile) { p.DataSeed++ },
	}
	key := func(profs []trace.Profile) warmKey {
		return warmKey{profiles: profs, seed: 42, llcBytes: 1 << 20, llcWays: 8}
	}
	same := key(RateMode(base, 8))
	if !same.equal(key(RateMode(base, 8))) {
		t.Fatal("equal inputs have unequal keys")
	}
	pt := reflect.TypeOf(base)
	for i := 0; i < pt.NumField(); i++ {
		name := pt.Field(i).Name
		mut, ok := mutations[name]
		if !ok {
			if name != "Name" {
				t.Errorf("Profile.%s has no mutation in this test", name)
			}
			continue
		}
		// One core's profile differs, in one field, in the last place compared.
		profs := RateMode(base, 8)
		mut(&profs[7])
		if same.equal(key(profs)) {
			t.Errorf("profiles that differ in %s share a key", name)
		}
	}
	for what, other := range map[string]warmKey{
		"seed":      {profiles: same.profiles, seed: 43, llcBytes: 1 << 20, llcWays: 8},
		"LLC bytes": {profiles: same.profiles, seed: 42, llcBytes: 2 << 20, llcWays: 8},
		"LLC ways":  {profiles: same.profiles, seed: 42, llcBytes: 1 << 20, llcWays: 16},
		"cores":     key(RateMode(base, 4)),
	} {
		if same.equal(other) {
			t.Errorf("keys that differ in %s are equal", what)
		}
	}

	// End to end: an image built for 8 cores is not served to a 4-core
	// run, whose result is that of a cold 4-core run.
	run := func(cores int, p trace.Profile) Metrics {
		cfg := warmTestConfig(config.CheckOff)
		cfg.CPU.Cores = cores
		m, err := Run(RunConfig{Cfg: cfg, Kind: config.SystemAttache, Profiles: RateMode(p, cores),
			AccessesPerCore: 400, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	warmImages.reset()
	cold4 := run(4, base)
	warmImages.reset()
	run(8, base)
	if got := run(4, base); got != cold4 {
		t.Fatal("a 4-core run after an 8-core one differs from a cold 4-core run")
	}
	stores := base
	stores.StoreFrac += 0.01
	run(8, stores)
	if n := len(warmImages.resident(t)); n != 3 {
		t.Fatalf("8 cores, 4 cores and a changed StoreFrac left %d images, want 3", n)
	}
}

// TestWarmCacheBounded streams three times as many images as fit through
// a cache: the resident bytes never pass the bound, the images kept are
// the most recently used ones, and one that keeps being used is never
// built twice.
func TestWarmCacheBounded(t *testing.T) {
	var c warmCache
	const size = 1<<20 + 8*generatorBytes // an image of Table II's geometry
	fits := int(warmCacheBytes / size)
	if fits < 24 {
		t.Fatalf("the bound holds %d images of Table II's geometry; -experiment all keeps 24 workloads in use", fits)
	}
	builds := map[int64]int{}
	use := func(seed int64) {
		c.get(warmKey{seed: seed}, func() *warmImage { builds[seed]++; return fakeImage(size) })
		c.resident(t) // checks the bound
	}
	const hot = 0
	keys := int64(3 * fits)
	for seed := int64(1); seed <= keys; seed++ {
		use(hot)
		use(seed)
	}
	if builds[hot] != 1 {
		t.Errorf("the image in constant use was built %d times", builds[hot])
	}
	kept := map[int64]bool{}
	for _, e := range c.resident(t) {
		kept[e.key.seed] = true
	}
	if len(kept) != fits {
		t.Errorf("%d images resident, %d fit", len(kept), fits)
	}
	for seed := keys; seed > keys-int64(fits)+1; seed-- {
		if !kept[seed] {
			t.Errorf("recently used image %d was evicted while older ones stay", seed)
		}
	}

	// An image larger than the whole bound is handed to its callers and
	// not kept.
	if img, built := c.get(warmKey{seed: -1}, func() *warmImage { return fakeImage(warmCacheBytes + generatorBytes) }); img == nil || !built {
		t.Fatal("an oversized image was not returned to its builder")
	}
	if len(c.resident(t)) != fits {
		t.Error("an oversized image displaced resident ones")
	}

	// The cache's own counters tell the same story: every key but the hot
	// one was built once, the hot one hit ever after, and all but what fits
	// went to make room.
	st := c.stats()
	if want := uint64(keys) + 2; st.Builds != want || st.Hits != uint64(keys)-1 {
		t.Errorf("counted %d builds and %d hits, want %d and %d", st.Builds, st.Hits, want, keys-1)
	}
	if st.Evictions != st.Builds-1-uint64(fits) || st.Evictions == 0 {
		t.Errorf("counted %d evictions with %d built and %d resident", st.Evictions, st.Builds, fits)
	}
	var held int64
	for _, e := range c.resident(t) {
		held += e.size
	}
	if st.ResidentBytes != held || st.ResidentBytes > st.BoundBytes || st.BoundBytes != warmCacheBytes {
		t.Errorf("counted %d bytes resident of %d; the %d images held are charged %d", st.ResidentBytes, st.BoundBytes, fits, held)
	}
}

// TestWarmSingleflight: concurrent runs of one key build its image once,
// and a build that panics releases everyone waiting on it — each waiter
// retries, so each sees the panic itself — and leaves nothing behind.
func TestWarmSingleflight(t *testing.T) {
	const callers = 16
	key := warmKey{seed: 1}

	// hammer starts one caller, waits until its build is under way, then
	// the other 15; the first build finishes only once all are started.
	hammer := func(c *warmCache, build func() *warmImage) (imgs []*warmImage, panics int32) {
		started, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		var panicked atomic.Int32
		imgs = make([]*warmImage, callers)
		var wg sync.WaitGroup
		call := func(i int) {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					panicked.Add(1)
				}
			}()
			imgs[i], _ = c.get(key, func() *warmImage {
				once.Do(func() { close(started) })
				<-release
				return build()
			})
		}
		wg.Add(callers)
		go call(0)
		<-started
		for i := 1; i < callers; i++ {
			go call(i)
		}
		close(release)
		wg.Wait()
		return imgs, panicked.Load()
	}

	var c warmCache
	var builds atomic.Int32
	imgs, panics := hammer(&c, func() *warmImage { builds.Add(1); return fakeImage(1 << 20) })
	if builds.Load() != 1 || panics != 0 {
		t.Fatalf("%d builds and %d panics for one key, want 1 and 0", builds.Load(), panics)
	}
	for i, img := range imgs {
		if img == nil || img != imgs[0] {
			t.Fatalf("caller %d got a different image than caller 0", i)
		}
	}

	c.reset()
	_, panics = hammer(&c, func() *warmImage { panic("build failed") })
	if panics != callers {
		t.Fatalf("%d of %d callers saw the build's panic", panics, callers)
	}
	c.mu.Lock()
	left := len(c.entries)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("failed builds left %d entries in the cache", left)
	}
	if img, built := c.get(key, func() *warmImage { return fakeImage(1 << 20) }); img == nil || !built {
		t.Fatal("the key cannot be built after a failed build")
	}
}

// TestMutationWarmImage proves both guards on the image have teeth. One
// dirty bit flipped, or one draw dropped, in a stored image: the
// cold-vs-hit equality test sees different Metrics, and the audit of a
// checked run names the set and LRU position, or the core.
func TestMutationWarmImage(t *testing.T) {
	// lbm streams: every reference after the warm-up misses, so the first
	// one core 0 makes evicts the LRU line of its set, and whether that
	// line is written back is the bit flipped here.
	profs := workloadProfiles(t, "lbm", 8)
	var set int
	mutations := []struct {
		name   string
		mutate func(*warmImage)
		names  func() string
	}{
		{"dirty bit", func(img *warmImage) {
			sets := len(img.llc.Lines) / img.llc.Ways
			set = int(img.gens[0].Clone().Next().LineAddr) & (sets - 1)
			img.llc.Lines[set*img.llc.Ways] ^= cache.ImageDirty
		}, func() string { return fmt.Sprintf("LLC set %d, LRU position 0", set) }},
		{"dropped draw", func(img *warmImage) { img.gens[3].Next() },
			func() string { return "core 3's next draw" }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			rc := RunConfig{Cfg: warmTestConfig(config.CheckOff), Kind: config.SystemAttache, Profiles: profs,
				AccessesPerCore: 400, Seed: 42}
			cold, hit, err := coldAndHit(t, rc, m.mutate)
			if err != nil {
				t.Fatal(err)
			}
			if hit == cold {
				t.Error("the damaged image escaped the cold-vs-hit equality test")
			}

			rc.Cfg.Check = config.CheckInvariants
			_, _, err = coldAndHit(t, rc, m.mutate)
			if err == nil {
				t.Fatal("the damaged image escaped the audit")
			}
			for _, want := range []string{"check: warm image differs", m.names()} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("diagnostic %q does not name %q", err, want)
				}
			}
		})
	}
	warmImages.reset() // the damaged image must not outlive the test
}

// coldSeed gives BenchmarkRunWarm/cold a seed no earlier iteration, of
// this or an earlier round of b.N, has left an image for.
var coldSeed int64 = 1 << 32

// BenchmarkRunWarm is the warm-image rung: the cell of
// BenchmarkSimulatorThroughput when the run has to warm its LLC itself
// and capture the image (cold), and when it restores one (hit). The
// difference is what a sweep saves on every run after a workload's first.
func BenchmarkRunWarm(b *testing.B) {
	prof, err := trace.ByName("zeusmp")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default()
	run := func(b *testing.B, seed int64) {
		if _, err := Run(RunConfig{Cfg: cfg, Kind: config.SystemAttache,
			Profiles: RateMode(prof, cfg.CPU.Cores), AccessesPerCore: 4000, Seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			coldSeed++
			run(b, coldSeed)
		}
	})
	b.Run("hit", func(b *testing.B) {
		run(b, 42)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, 42)
		}
	})
}
