package feedback

import (
	"math"
	"testing"

	"repro/internal/task"
)

// TestEstimatorUnits covers the estimator in isolation: the cold-start
// prior, the warmup, the deadband's exact-1.0 contract, clamping, and
// the snapshot/threshold replan query.
func TestEstimatorUnits(t *testing.T) {
	e := New(2, 3)
	obj := task.ObjectID(1)

	if f := e.Factor(0, obj); f != 1 {
		t.Fatalf("cold-start factor %g, want exactly 1", f)
	}
	// Ratios inside the deadband leave the effective factor at exactly 1.
	for i := 0; i < 2*warmupObs; i++ {
		if changed := e.Observe(0, obj, 2.5, 1.0); changed {
			t.Fatal("effective factor changed inside the deadband")
		}
	}
	if f := e.Factor(0, obj); f != 1 {
		t.Fatalf("factor %g inside deadband, want exactly 1", f)
	}
	if b := 0.1; math.Float64bits(e.Apply(0, obj, b)) != math.Float64bits(b) {
		t.Fatal("Apply changed a benefit inside the deadband")
	}
	// Sustained 8x error pushes the ratio out of the deadband once the
	// warmup has seen enough samples.
	for i := 0; i < 8; i++ {
		e.Observe(1, obj, 8, 1)
	}
	if f := e.Factor(1, obj); f < 2 {
		t.Fatalf("factor %g after sustained 8x error, want > 2", f)
	}
	if got, want := e.Apply(1, obj, 0.1), 0.1*e.Factor(1, obj); got != want {
		t.Fatalf("Apply = %g, want benefit x factor = %g", got, want)
	}
	if !e.ShouldReplan(1, obj) {
		t.Fatal("no replan trigger after factor left the snapshot by > threshold")
	}
	e.Snapshot()
	if e.ShouldReplan(1, obj) {
		t.Fatal("replan trigger survives Snapshot")
	}
	// Clamp: even absurd ratios cap at MaxFactor.
	for i := 0; i < 32; i++ {
		e.Observe(1, obj, 1000, 1)
	}
	if f := e.Factor(1, obj); f > MaxFactor {
		t.Fatalf("factor %g beyond MaxFactor %d", f, MaxFactor)
	}
	st := e.Stats()
	if st.Corrections != 1 || st.Observations == 0 {
		t.Fatalf("stats %+v, want 1 active correction", st)
	}
	if MaxFactor < st.MaxFactor || st.MaxFactor <= 1 {
		t.Fatalf("stats MaxFactor %g outside (1, %d]", st.MaxFactor, MaxFactor)
	}
}

// TestEstimatorWarmupHoldsPrior pins the warmup contract the runner's
// bit-identity test relies on: no matter how wild the early ratios, the
// factor stays exactly 1.0 until warmupObs samples have accumulated.
func TestEstimatorWarmupHoldsPrior(t *testing.T) {
	e := New(1, 1)
	for i := 0; i < warmupObs-1; i++ {
		if e.Observe(0, 0, 100, 1) {
			t.Fatalf("factor active after %d observations (warmup is %d)", i+1, warmupObs)
		}
		if f := e.Factor(0, 0); f != 1 {
			t.Fatalf("factor %g during warmup, want exactly 1", f)
		}
	}
	if !e.Observe(0, 0, 100, 1) {
		t.Fatal("factor did not activate once warmup completed under sustained 100x error")
	}
}

// TestEstimatorMagnitudeWeighting pins the role-mixing property: a pair
// observed alternately as a heavy main operand and a near-zero halo read
// must not trip a correction when the aggregate matches the prediction.
func TestEstimatorMagnitudeWeighting(t *testing.T) {
	e := New(1, 1)
	// Observed alternates 1.9 and 0.1; predicted is the per-entry mean
	// 1.0 both times — per-execution ratios of 1.9x and 0.1x, aggregate
	// ratio 1.0.
	for i := 0; i < 64; i++ {
		obs := 1.9
		if i%2 == 1 {
			obs = 0.1
		}
		e.Observe(0, 0, obs, 1.0)
	}
	if f := e.Factor(0, 0); f != 1 {
		t.Fatalf("role mixing tripped a correction: factor %g, want exactly 1", f)
	}
	if st := e.Stats(); st.Corrections != 0 {
		t.Fatalf("stats %+v, want no corrections", st)
	}
}

// TestConfigValidate covers the config surface: the zero Config is the
// disabled loop, and the estimator constants lie in their valid ranges.
func TestConfigValidate(t *testing.T) {
	if (Config{}).Enabled {
		t.Fatal("zero config enables the loop")
	}
	if Alpha <= 0 || Alpha > 1 {
		t.Fatalf("Alpha %g outside (0, 1]", float64(Alpha))
	}
	if Deadband < 0 || ReplanThreshold < 0 || ReplanBudget < 1 {
		t.Fatalf("Deadband %g, ReplanThreshold %g, ReplanBudget %d out of range",
			float64(Deadband), float64(ReplanThreshold), ReplanBudget)
	}
}
