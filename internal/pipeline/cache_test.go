package pipeline

import (
	"math/rand"
	"testing"
)

func TestCacheValidate(t *testing.T) {
	bad := []CacheConfig{
		{Size: 0, LineSize: 32, Assoc: 1},
		{Size: 1024, LineSize: 33, Assoc: 1},
		{Size: 1000, LineSize: 32, Assoc: 2},
		{Size: 1024, LineSize: 32, Assoc: 0},
	}
	for i, cfg := range bad {
		if _, err := newCache(cfg); err == nil {
			t.Errorf("case %d accepted %+v", i, cfg)
		}
	}
}

// TestCacheNewNeverPanics: bad geometry must come back as an error
// from newCache — long-running callers (the compile daemon's
// simulations above all) handle it instead of crashing.
func TestCacheNewNeverPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("newCache panicked on bad geometry: %v", r)
		}
	}()
	c, err := newCache(CacheConfig{Size: -64, LineSize: 0, Assoc: -1})
	if err == nil || c != nil {
		t.Fatalf("newCache(bad) = %v, %v; want nil, error", c, err)
	}
}

// mustCache builds a cache from a geometry the test knows is valid.
func mustCache(t *testing.T, cfg CacheConfig) *cache {
	t.Helper()
	c, err := newCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHitsWithinLine(t *testing.T) {
	c := mustCache(t, CacheConfig{Size: 1024, LineSize: 32, Assoc: 2, MissPenalty: 10})
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	for a := uint64(1); a < 32; a++ {
		if !c.Access(a) {
			t.Fatalf("addr %d in cached line missed", a)
		}
	}
	if c.Access(32) {
		t.Fatal("next line should miss")
	}
	if c.Stats.Misses != 2 || c.Stats.Accesses != 33 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 2-way, 2 sets. Addresses mapping to set 0:
	// multiples of 64 (lines 0,2,4.. with 2 sets).
	c := mustCache(t, CacheConfig{Size: 128, LineSize: 32, Assoc: 2, MissPenalty: 10})
	a0, a1, a2 := uint64(0), uint64(64), uint64(128) // all set 0
	c.Access(a0)
	c.Access(a1)
	if !c.Access(a0) {
		t.Fatal("a0 should still be cached")
	}
	c.Access(a2) // evicts a1 (LRU)
	if !c.Access(a0) {
		t.Fatal("a0 must survive (recently used)")
	}
	if c.Access(a1) {
		t.Fatal("a1 must have been evicted")
	}
}

func TestCacheAssociativityReducesConflicts(t *testing.T) {
	// Ping-pong between two conflicting lines: direct-mapped thrashes,
	// 2-way holds both.
	dm := mustCache(t, CacheConfig{Size: 128, LineSize: 32, Assoc: 1, MissPenalty: 10})
	sa := mustCache(t, CacheConfig{Size: 128, LineSize: 32, Assoc: 2, MissPenalty: 10})
	for i := 0; i < 50; i++ {
		dm.Access(0)
		dm.Access(128)
		sa.Access(0)
		sa.Access(128)
	}
	if dm.Stats.Misses <= sa.Stats.Misses {
		t.Errorf("direct-mapped %d misses vs 2-way %d", dm.Stats.Misses, sa.Stats.Misses)
	}
	if sa.Stats.Misses != 2 {
		t.Errorf("2-way should only compulsory-miss: %d", sa.Stats.Misses)
	}
}

func TestCacheWorkingSetFitsAfterWarmup(t *testing.T) {
	c := mustCache(t, CacheConfig{Size: 4096, LineSize: 32, Assoc: 2, MissPenalty: 10})
	// 2KB working set fits in 4KB: after one pass everything hits.
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 2048; a += 4 {
			c.Access(a)
		}
	}
	want := uint64(2048 / 32)
	if c.Stats.Misses != want {
		t.Errorf("misses = %d, want %d compulsory", c.Stats.Misses, want)
	}
}

func TestCacheResetClears(t *testing.T) {
	c := mustCache(t, CacheConfig{Size: 1024, LineSize: 32, Assoc: 2, MissPenalty: 5})
	c.Access(0)
	c.Reset()
	if c.Stats.Accesses != 0 {
		t.Fatal("stats survived reset")
	}
	if c.Access(0) {
		t.Fatal("contents survived reset")
	}
}

func TestCacheMissRateMonotoneInSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 20000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(16384))
	}
	prev := 2.0
	for _, size := range []int{512, 2048, 8192, 32768} {
		c := mustCache(t, CacheConfig{Size: size, LineSize: 32, Assoc: 2, MissPenalty: 10})
		for _, a := range addrs {
			c.Access(a)
		}
		mr := c.Stats.MissRate()
		if mr > prev {
			t.Errorf("size %d: miss rate %v worse than smaller cache %v", size, mr, prev)
		}
		prev = mr
	}
}
