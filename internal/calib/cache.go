package calib

import (
	"math"
	"sync"

	"repro/internal/mem"
	"repro/internal/prof"
)

// Envelope reduces a machine to the two-device envelope the constant
// factors are a property of. The factors calibrate the runtime's model
// against the simulated truth for a device pair — the fastest and
// slowest devices — not for any middle tier, so N-tier machines reuse
// the factors of their envelope. This also keeps the cache key's
// device-pair form collision-free between a 3-tier machine and the
// 2-tier machine it envelopes.
func Envelope(h mem.HMS) mem.HMS {
	if h.NumTiers() > 2 {
		fast := h.Fastest()
		return mem.NewHMS(h.Device(fast), h.Device(0), h.Capacity(fast))
	}
	return h
}

// cacheEntry carries a per-key sync.Once so concurrent callers needing
// the same machine neither duplicate the calibration run nor serialize
// behind a global lock while one of them computes (different machines
// calibrate concurrently) — singleflight semantics without a dependency.
type cacheEntry struct {
	once sync.Once
	f    Factors
}

// cacheKey names an envelope and sampling interval: the fast and slow
// devices, with the slow device's read bandwidth and latency by bits.
type cacheKey struct {
	fast, slow string
	bw, lat    uint64
	interval   int64
}

// Cache memoizes the per-machine calibration factors. The zero value is
// ready to use. The experiment harness and the serve daemon share one
// instance (Shared), so a thousand concurrent tenants asking for the
// same machine spec pay for calibration exactly once.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
}

// Shared is the process-wide calibration cache.
var Shared = &Cache{}

// Factors returns the calibration factors for the machine's envelope,
// computing them at most once per (envelope, sampling interval) key. A
// calibration failure degrades to neutral factors {1, 1}, matching the
// harness's historical behavior: experiment definitions are code, and a
// machine that cannot calibrate still simulates.
func (c *Cache) Factors(h mem.HMS, pc prof.Config) Factors {
	// The envelope keeps h's fastest and slowest devices, so the key
	// reads them from h and only a calibration builds the envelope.
	fast, slow := h.Device(h.Fastest()), h.Device(0)
	key := cacheKey{fast.Name, slow.Name, math.Float64bits(slow.ReadBW), math.Float64bits(slow.ReadLatNS), pc.SamplingInterval}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[cacheKey]*cacheEntry)
	}
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		f, err := Calibrate(Envelope(h), pc)
		if err != nil {
			f = Factors{CFBw: 1, CFLat: 1}
		}
		e.f = f
	})
	return e.f
}
