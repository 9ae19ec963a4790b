package prof

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/task"
)

// newK returns a profiler for one kind with the given name and nobj
// objects; the tests' kind is index 0.
func newK(cfg Config, kind string, nobj int) *Profiler {
	return New(cfg, []string{kind}, nobj)
}

// exec is one execution of kind 0 touching object 0.
func exec(dur float64, loads, stores int64, share float64) Exec {
	return Exec{
		Duration: dur,
		Obs:      []AccessObs{{Obj: 0, Loads: loads, Stores: stores, TimeShare: share}},
	}
}

// estimate returns a pair's own profile, ok only for an observed pair
// (EstimateFor alone would serve the kind fallback).
func estimate(p *Profiler, k int, obj task.ObjectID) (Estimate, bool) {
	if !p.Observed(k, obj) {
		return Estimate{}, false
	}
	return p.EstimateFor(k, obj, 0)
}

func TestProfilingWindow(t *testing.T) {
	p := newK(DefaultConfig(), "gemm", 1)
	if p.Profiled(0) || p.Observed(0, 0) {
		t.Fatal("unseen kind reported profiled")
	}
	p.Record(exec(0.01, 1e6, 5e5, 0.8))
	if p.Profiled(0) {
		t.Fatal("one execution should not complete the window")
	}
	if !p.Observed(0, 0) {
		t.Fatal("kind not seen after record")
	}
	p.Record(exec(0.01, 1e6, 5e5, 0.8))
	if !p.Profiled(0) {
		t.Fatal("two executions should complete the window")
	}
}

func TestSampledCountsNearTruthForLargeCounts(t *testing.T) {
	p := newK(DefaultConfig(), "k", 1)
	const trueLoads, trueStores = int64(10e6), int64(4e6)
	p.Record(exec(0.05, trueLoads, trueStores, 0.9))
	p.Record(exec(0.05, trueLoads, trueStores, 0.9))
	est, ok := estimate(p, 0, 0)
	if !ok {
		t.Fatal("no estimate")
	}
	// The estimate reflects the systematic bias (0.92) within jitter.
	if math.Abs(est.Loads-0.92*float64(trueLoads)) > 0.05*float64(trueLoads) {
		t.Fatalf("loads estimate %g too far from %g", est.Loads, 0.92*float64(trueLoads))
	}
	if math.Abs(est.Stores-0.92*float64(trueStores)) > 0.05*float64(trueStores) {
		t.Fatalf("stores estimate %g too far", est.Stores)
	}
	if est.Loads <= est.Stores {
		t.Fatal("loads/stores distinction lost")
	}
}

func TestBandwidthConsumptionEstimate(t *testing.T) {
	// 1e6 loads + 0 stores over a 0.01 s task fully occupied by this
	// object: ~64 MB / 0.01 s = 6.4 GB/s (times sampling bias).
	p := newK(DefaultConfig(), "k", 1)
	p.Record(exec(0.01, 1e6, 0, 1.0))
	est, _ := estimate(p, 0, 0)
	want := 0.92 * 1e6 * 64 / 0.01
	if math.Abs(est.BWCons-want) > 0.1*want {
		t.Fatalf("BWCons = %g, want about %g", est.BWCons, want)
	}
	// Same traffic but active only 10% of the time: 10x the consumption
	// rate, per equation (1).
	p2 := newK(DefaultConfig(), "k", 1)
	p2.Record(exec(0.01, 1e6, 0, 0.1))
	est2, _ := estimate(p2, 0, 0)
	if est2.BWCons < 5*est.BWCons {
		t.Fatalf("time-share scaling broken: %g vs %g", est2.BWCons, est.BWCons)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Estimate {
		p := newK(DefaultConfig(), "k", 1)
		p.Record(exec(0.02, 3e5, 2e5, 0.5))
		e, _ := estimate(p, 0, 0)
		return e
	}
	if run() != run() {
		t.Fatal("profiler is not deterministic")
	}
}

func TestSeedChangesNoise(t *testing.T) {
	cfg := DefaultConfig()
	p1 := newK(cfg, "k", 1)
	cfg.Seed = 99
	p2 := newK(cfg, "k", 1)
	p1.Record(exec(0.02, 3e5, 2e5, 0.5))
	p2.Record(exec(0.02, 3e5, 2e5, 0.5))
	e1, _ := estimate(p1, 0, 0)
	e2, _ := estimate(p2, 0, 0)
	if e1 == e2 {
		t.Fatal("different seeds produced identical noise")
	}
}

// TestDriftDetection covers the count audit's life cycle: counts that
// match the profile score as no drift, a sustained count shift scores
// past 1, MarkStale re-opens the kind, and re-profiling restores it at
// the new baseline.
func TestDriftDetection(t *testing.T) {
	p := newK(DefaultConfig(), "k", 1)
	p.Record(exec(0.010, 1e6, 0, 1))
	p.Record(exec(0.010, 1e6, 0, 1))
	if !p.Profiled(0) {
		t.Fatal("not profiled")
	}
	if dev := p.Record(exec(0.010, 1e6, 0, 1)); dev > 1 {
		t.Fatalf("unchanged counts scored %g as drift", dev)
	}
	if dev := p.Record(exec(0.016, 3e6, 0, 1)); dev <= 1 {
		t.Fatalf("3x count shift scored %g, want > 1", dev)
	}
	p.MarkStale(0)
	if p.Profiled(0) {
		t.Fatal("stale kind still reported profiled")
	}
	// Re-profiling restores the kind at the new baseline.
	p.Record(exec(0.016, 3e6, 0, 1))
	p.Record(exec(0.016, 3e6, 0, 1))
	if !p.Profiled(0) {
		t.Fatal("kind not restored after re-profiling")
	}
	if mean, _ := p.MeanDuration(0); mean != 0.016 {
		t.Fatalf("re-profiled mean %g, want 0.016", mean)
	}
	if dev := p.Record(exec(0.016, 3e6, 0, 1)); dev > 1 {
		t.Fatalf("new baseline scored %g as drift", dev)
	}
}

// TestFasterRunsNeverDrift: a kind whose tasks get faster while its
// counts stay put — a data placement that worked — never scores as
// drift, and its mean duration follows the improvement.
func TestFasterRunsNeverDrift(t *testing.T) {
	p := newK(DefaultConfig(), "k", 1)
	p.Record(exec(0.010, 1e6, 0, 1))
	p.Record(exec(0.010, 1e6, 0, 1))
	for i := 0; i < 48; i++ {
		if dev := p.Record(exec(0.002, 1e6, 0, 1)); dev > 1 {
			t.Fatalf("improvement scored %g as drift", dev)
		}
	}
	mean, _ := p.MeanDuration(0)
	if mean >= 0.010 {
		t.Fatal("mean duration did not follow the improved duration")
	}
}

func TestZeroAndSmallCounts(t *testing.T) {
	p := newK(DefaultConfig(), "k", 1)
	p.Record(exec(0.01, 0, 0, 0))
	est, ok := estimate(p, 0, 0)
	if !ok {
		t.Fatal("no estimate recorded")
	}
	if est.Loads != 0 || est.Stores != 0 || est.BWCons != 0 {
		t.Fatalf("zero traffic produced estimate %+v", est)
	}
}

func TestEstimateUnknown(t *testing.T) {
	p := newK(DefaultConfig(), "nope", 4)
	if _, ok := estimate(p, 0, 3); ok {
		t.Fatal("estimate for unknown kind")
	}
	if _, ok := p.EstimateFor(0, 3, 1<<20); ok {
		t.Fatal("fallback estimate for a kind never seen")
	}
}

func TestSampleCountNonNegativeProperty(t *testing.T) {
	cfg := DefaultConfig()
	check := func(n int64, seed uint64) bool {
		if n < 0 {
			n = -n
		}
		n %= 1 << 40
		cfg.Seed = seed
		got := cfg.sampleCount(n, cfg.SamplingInterval, splitmix64(seed))
		if got < 0 {
			return false
		}
		// Large counts stay within 2x of the biased truth.
		if n > 1_000_000 {
			biased := float64(n) * cfg.Bias
			if math.Abs(float64(got)-biased) > 0.5*biased {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Regression: low-rate error must widen. The old model clamped the
// relative error at Jitter whenever the expected sample count was <= 1,
// so sampling a small count every 1000 accesses and every 512000 accesses
// produced equally tight estimates.
func TestErrorGrowsWithSamplingInterval(t *testing.T) {
	const trueCount = int64(500)
	meanAbsErr := func(interval int64) float64 {
		cfg := DefaultConfig()
		cfg.SamplingInterval = interval
		cfg.Jitter = 0.2
		var sum float64
		const trials = 256
		for i := 0; i < trials; i++ {
			cfg.Seed = uint64(i + 1)
			got := cfg.Sample(trueCount, 12345)
			sum += math.Abs(float64(got) - cfg.Bias*float64(trueCount))
		}
		return sum / trials / (cfg.Bias * float64(trueCount))
	}
	dense, sparse := meanAbsErr(1000), meanAbsErr(512000)
	if sparse <= 1.5*dense {
		t.Fatalf("error did not widen with the sampling interval: dense %.4f, sparse %.4f", dense, sparse)
	}
	// And the analytic error model agrees: monotone in the interval.
	cfg := DefaultConfig()
	prev := 0.0
	for _, ivl := range []int64{1000, 4000, 16000, 64000, 512000} {
		rel := cfg.RelError(trueCount, ivl)
		if rel < prev {
			t.Fatalf("RelError not monotone: %g at interval %d after %g", rel, ivl, prev)
		}
		if rel > MaxRelError {
			t.Fatalf("RelError %g exceeds cap", rel)
		}
		prev = rel
	}
	if cfg.RelError(trueCount, 1000) >= cfg.RelError(trueCount, 512000) {
		t.Fatal("sparse sampling not noisier than dense")
	}
}

// Estimates must be invariant under the ordering of an execution's Obs
// slice: the float accumulation and the noise stream both run in
// canonical (object-ascending) order.
func TestObsOrderInvariance(t *testing.T) {
	obs := []AccessObs{
		{Obj: 2, Loads: 3e5, Stores: 1e5, Size: 1 << 20, TimeShare: 0.5},
		{Obj: 0, Loads: 2e5, Stores: 5e4, Size: 1 << 20, TimeShare: 0.3},
		{Obj: 1, Loads: 9e4, Stores: 2e4, Size: 1 << 20, TimeShare: 0.2},
	}
	run := func(perm []int) [3]Estimate {
		p := newK(DefaultConfig(), "k", 3)
		for rep := 0; rep < 3; rep++ {
			o := make([]AccessObs, len(perm))
			for i, pi := range perm {
				o[i] = obs[pi]
			}
			p.Record(Exec{Duration: 0.01, Obs: o})
		}
		var out [3]Estimate
		for i := range out {
			out[i], _ = estimate(p, 0, task.ObjectID(i))
		}
		return out
	}
	want := run([]int{0, 1, 2})
	for _, perm := range [][]int{{1, 2, 0}, {2, 1, 0}, {0, 2, 1}, {2, 0, 1}, {1, 0, 2}} {
		if got := run(perm); got != want {
			t.Fatalf("estimates depend on Obs order: perm %v got %+v want %+v", perm, got, want)
		}
	}
}

// Regression: with Window=2, a pair observed in only one of the window's
// executions could not contribute a drift score on the kind's third
// execution — the score was gated on the pair's *third* observation while
// the MAD updated from the second, an off-by-one that delayed detection
// by a full execution.
func TestDriftFlagsOnThirdExecution(t *testing.T) {
	p := newK(DefaultConfig(), "k", 2)
	// Window executions 1 and 2: object 1 appears only in the first.
	p.Record(Exec{Duration: 0.01, Obs: []AccessObs{
		{Obj: 0, Loads: 1e6, TimeShare: 0.5},
		{Obj: 1, Loads: 1e6, TimeShare: 0.5},
	}})
	p.Record(Exec{Duration: 0.01, Obs: []AccessObs{
		{Obj: 0, Loads: 1e6, TimeShare: 1},
	}})
	if !p.Profiled(0) {
		t.Fatal("window not closed after two executions")
	}
	// Third execution: object 1's traffic tripled. This is the pair's
	// second observation; it must score.
	dev := p.Record(Exec{Duration: 0.01, Obs: []AccessObs{
		{Obj: 1, Loads: 3e6, TimeShare: 1},
	}})
	if dev <= 1 {
		t.Fatalf("3x count shift on the third execution scored %g, want > 1", dev)
	}
}

// Property: the per-byte kind fallback converges to the exact-pair
// estimate as observations accumulate (both average toward the biased
// truth), and stays within a few percent once the window is deep.
func TestKindFallbackConvergence(t *testing.T) {
	const size = int64(1 << 20)
	const loads, stores = int64(1e6), int64(2e5)
	diffAfter := func(execs int) float64 {
		// Objects 0..execs are observed; object execs+1 never is.
		unseen := task.ObjectID(execs + 1)
		p := newK(DefaultConfig(), "k", execs+2)
		for i := 0; i < execs; i++ {
			p.Record(Exec{Duration: 0.01, Obs: []AccessObs{
				{Obj: 0, Loads: loads, Stores: stores, Size: size, TimeShare: 0.5},
				{Obj: task.ObjectID(1 + i), Loads: loads, Stores: stores, Size: size, TimeShare: 0.5},
			}})
		}
		exact, ok := estimate(p, 0, 0)
		if !ok {
			t.Fatal("no exact estimate")
		}
		// The unseen object is served by the kind fallback.
		fb, ok := p.EstimateFor(0, unseen, size)
		if !ok {
			t.Fatal("no fallback estimate")
		}
		return math.Abs(fb.Loads-exact.Loads) / exact.Loads
	}
	shallow, deep := diffAfter(3), diffAfter(96)
	if deep > 0.03 {
		t.Fatalf("fallback did not converge to the exact-pair estimate: %.4f after 96 executions", deep)
	}
	if deep >= shallow && shallow > 0.005 {
		t.Fatalf("fallback error did not shrink with observations: %.4f -> %.4f", shallow, deep)
	}
}

func TestPerKindIntervalAndSampleAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jitter = 0.5
	p := newK(cfg, "k", 1)
	if p.IntervalFor(0) != cfg.SamplingInterval {
		t.Fatal("unset kind does not use the base interval")
	}
	p.Record(exec(0.01, 1e5, 0, 1))
	if got, want := p.SamplesTaken(), 1e5/float64(cfg.SamplingInterval); math.Abs(got-want) > 1e-9 {
		t.Fatalf("SamplesTaken = %g, want %g", got, want)
	}
	coarse := p.RelErrorFor(0, 0)
	p.SetKindInterval(0, cfg.SamplingInterval/8)
	if p.IntervalFor(0) != cfg.SamplingInterval/8 {
		t.Fatal("override not applied")
	}
	// The error reports the rate the estimate was *taken* at, so the
	// override alone changes nothing until a densified re-profile lands.
	if got := p.RelErrorFor(0, 0); got != coarse {
		t.Fatalf("override changed the stored estimate's error: %g -> %g", coarse, got)
	}
	// The override survives a re-profile — that is what it exists for.
	p.MarkStale(0)
	if p.IntervalFor(0) != cfg.SamplingInterval/8 {
		t.Fatal("override lost across MarkStale")
	}
	if math.IsInf(p.RelErrorFor(0, 0), 1) != true {
		t.Fatal("stale pair should have unbounded error")
	}
	before := p.SamplesTaken()
	p.Record(exec(0.01, 1e5, 0, 1))
	gotDelta := p.SamplesTaken() - before
	if want := 1e5 / float64(cfg.SamplingInterval/8); math.Abs(gotDelta-want) > 1e-9 {
		t.Fatalf("densified recording cost %g samples, want %g", gotDelta, want)
	}
	if dense := p.RelErrorFor(0, 0); dense >= coarse {
		t.Fatalf("densified re-profile did not tighten the error: %g -> %g", coarse, dense)
	}
}

func TestExactConfigDisablesNoise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adaptive = true
	e := cfg.Exact()
	if e.Jitter != 0 || e.Adaptive {
		t.Fatalf("Exact() = %+v, want jitter 0 and adaptive off", e)
	}
	if e.Bias != cfg.Bias || e.SamplingInterval != cfg.SamplingInterval {
		t.Fatal("Exact() must keep bias and interval")
	}
	p := newK(e, "k", 1)
	p.Record(exec(0.01, 1e5, 3e4, 1))
	est, _ := estimate(p, 0, 0)
	if est.Loads != e.Bias*1e5 || est.Stores != e.Bias*3e4 {
		t.Fatalf("noise-free estimate %+v not exactly biased truth", est)
	}
}
