package core

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// TestAdaptiveSamplingBoostsAndSaves: under heavy, sparse-rate profiling
// noise the controller must densify at least one flip-sensitive kind,
// land the total sampling cost strictly between the sparse and dense
// fixed rates, and not end up slower than the sparse fixed rate it
// started from.
func TestAdaptiveSamplingBoostsAndSaves(t *testing.T) {
	h := pressured()
	tg := build(t, "heat")
	noisy := func(c *Config) {
		c.Prof.Jitter = 0.4
		c.Prof.SamplingInterval = 1 << 20
	}
	sparse := runPolicy(t, tg, h, Tahoe, noisy)

	defer func() { testHook = nil }()
	var boosted int
	testHook = func(r *runner) {
		for _, b := range r.pt.kindBoosted {
			if b {
				boosted++
			}
		}
	}
	adaptive := runPolicy(t, tg, h, Tahoe, noisy, func(c *Config) { c.Prof.Adaptive = true })
	testHook = nil

	dense := runPolicy(t, tg, h, Tahoe, func(c *Config) { c.Prof.Jitter = 0.4 })

	if boosted == 0 {
		t.Fatal("adaptive controller boosted no kinds under sparse noisy profiling")
	}
	if adaptive.ProfileSamples <= sparse.ProfileSamples {
		t.Errorf("adaptive spent %.3g samples, no more than the sparse fixed rate's %.3g — boosts had no cost effect",
			adaptive.ProfileSamples, sparse.ProfileSamples)
	}
	if adaptive.ProfileSamples >= dense.ProfileSamples {
		t.Errorf("adaptive spent %.3g samples, as much as profiling everything densely (%.3g)",
			adaptive.ProfileSamples, dense.ProfileSamples)
	}
}

// TestAdaptiveNoOpWithoutNoise: with Jitter = 0 every stored estimate is
// error-free, so the controller has nothing to densify and the run must
// be identical to the non-adaptive one.
func TestAdaptiveNoOpWithoutNoise(t *testing.T) {
	h := pressured()
	for _, name := range []string{"cholesky", "cg"} {
		tg := build(t, name)
		off := runPolicy(t, tg, h, Tahoe, func(c *Config) { c.Prof.Jitter = 0 })
		on := runPolicy(t, tg, h, Tahoe, func(c *Config) {
			c.Prof.Jitter = 0
			c.Prof.Adaptive = true
		})
		if off != on {
			t.Errorf("%s: adaptive flag changed a noise-free run:\noff %+v\non  %+v", name, off, on)
		}
	}
}

// TestSensitivityQueryHitsGlobalSolve pins why the local search may skip
// the knapsack memo without moving a simulated charge: adaptSampling
// prices its sensitivity query by whether Margins hit the memo, and on
// two-tier Tahoe every query after a plan hits the global search's
// solve of the same items, made earlier in the same decision. Queries
// before the first plan (the pre-plan gate) have no plan to hit.
func TestSensitivityQueryHitsGlobalSolve(t *testing.T) {
	defer func() { marginsAudit = nil }()
	var post, missed int
	scenario := ""
	marginsAudit = func(r *runner, hit bool) {
		if !r.planned {
			return
		}
		post++
		if !hit {
			missed++
			t.Errorf("%s: post-plan sensitivity query missed the memo (plan kind %q, %d replans)", scenario, r.plan.kind, r.replans)
		}
	}
	adaptive := func(c *Config) {
		c.Prof.Jitter = 0.4
		c.Prof.SamplingInterval = 1 << 20
		c.Prof.Adaptive = true
	}
	for _, name := range []string{"heat", "cholesky", "cg"} {
		scenario = name
		runPolicy(t, build(t, name), pressured(), Tahoe, adaptive)
	}
	for seed := int64(1); seed <= 12; seed++ {
		scenario = fmt.Sprintf("equiv seed %d", seed)
		h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), []int64{16, 48, 128}[seed%3]*mem.MB)
		cfg := DefaultConfig(h)
		cfg.Workers = []int{1, 2, 4, 8}[seed%4]
		adaptive(&cfg)
		if _, err := Run(equivGraph(seed), cfg); err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
	}
	scenario = "drifty"
	cfg := DefaultConfig(mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.25), 32*mem.MB))
	adaptive(&cfg)
	if _, err := Run(driftyGraph(), cfg); err != nil {
		t.Fatalf("%s: %v", scenario, err)
	}
	if post == 0 {
		t.Fatal("no post-plan sensitivity query ran")
	}
	t.Logf("%d post-plan sensitivity queries, %d missed", post, missed)
}
