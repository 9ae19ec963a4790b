package calib

import (
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/prof"
)

// TestCacheSingleflight checks that concurrent requests for one machine
// agree bit-for-bit and that the cache serves the memoized factors on
// every subsequent call.
func TestCacheSingleflight(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	pc := prof.DefaultConfig()
	c := &Cache{}

	const callers = 8
	got := make([]Factors, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Factors(h, pc)
		}(i)
	}
	wg.Wait()
	want, err := Calibrate(h, pc)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range got {
		if f != want {
			t.Fatalf("caller %d got %+v, want %+v", i, f, want)
		}
	}
	if again := c.Factors(h, pc); again != want {
		t.Fatalf("cached call drifted: %+v vs %+v", again, want)
	}
}

// TestCacheEnvelope checks that an N-tier machine shares its two-device
// envelope's cache entry.
func TestCacheEnvelope(t *testing.T) {
	two := mem.NewHMS(mem.DRAM(), mem.OptanePM(), 64*mem.MB)
	three := mem.NewTieredHMS(
		mem.TierSpec{Device: mem.OptanePM(), Capacity: 1 << 44},
		mem.TierSpec{Device: mem.CXL(), Capacity: 128 * mem.MB},
		mem.TierSpec{Device: mem.DRAM(), Capacity: 64 * mem.MB},
	)
	env := Envelope(three)
	if env.NumTiers() != 2 {
		t.Fatalf("envelope has %d tiers", env.NumTiers())
	}
	c := &Cache{}
	pc := prof.DefaultConfig()
	if a, b := c.Factors(two, pc), c.Factors(three, pc); a != b {
		t.Fatalf("envelope cache split: %+v vs %+v", a, b)
	}
	if len(c.m) != 1 {
		t.Fatalf("expected one cache entry, got %d", len(c.m))
	}
}

// TestCacheHitAllocFree: a cached lookup, on a two- or three-tier
// machine, allocates nothing (the serve daemon makes one per run).
func TestCacheHitAllocFree(t *testing.T) {
	c := &Cache{}
	pc := prof.DefaultConfig()
	for _, h := range []mem.HMS{
		mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB),
		mem.NewTieredHMS(
			mem.TierSpec{Device: mem.OptanePM(), Capacity: 1 << 44},
			mem.TierSpec{Device: mem.CXL(), Capacity: 128 * mem.MB},
			mem.TierSpec{Device: mem.DRAM(), Capacity: 64 * mem.MB},
		),
	} {
		want := c.Factors(h, pc)
		if n := testing.AllocsPerRun(100, func() {
			if c.Factors(h, pc) != want {
				t.Fatal("cached factors changed")
			}
		}); n != 0 {
			t.Errorf("%d-tier cached lookup: %.0f allocs, want 0", h.NumTiers(), n)
		}
	}
}
