// Package feedback closes the loop between the runtime's benefit model
// and the behaviour it actually observes — the control half of the
// "observed vs predicted" design from online-guidance systems for
// heterogeneous memory.
//
// The planner's benefit equations (internal/model) are evaluated over
// sampled profiles and offline-calibrated constant factors; both can be
// wrong, and without feedback the planner trusts them forever. The
// Estimator watches every completed task: the runtime predicts the
// task's per-object memory time from the same profiled estimates and
// calibration the planner uses (model.Params.PredictAccessSec under the
// placement that actually held), compares it against the observed
// per-object time, and folds both sides into per-(task kind, object)
// EWMAs of seconds. The correction factor is their ratio — EWMA(observed)
// / EWMA(predicted) — with a cold-start prior of 1.0 held through a
// short warmup.
//
// The factor is a ratio of magnitude-weighted averages, not an average
// of per-execution ratios, on purpose: a kind's per-(kind, object)
// profile mixes the object's roles across task instances (a stencil
// band is one task's main operand and its neighbours' halo read — the
// same variance internal/prof tracks with its MAD yardstick), so any
// single execution's observed/predicted ratio can be off by orders of
// magnitude in either direction even with a perfect model. The seconds
// EWMAs weight each execution by how much time it actually involved —
// exactly the weighting the planner's aggregate benefit uses — so role
// mixing averages out and only genuine model error (miscalibration,
// profile drift) moves the factor.
//
// Factors pass through a multiplicative deadband: while a pair's EWMA
// ratio stays within Deadband of 1.0, its effective factor is exactly
// 1.0 — bit-for-bit, so a run whose model happens to be right (or whose
// feedback never accumulates evidence of error) is identical to a run
// without feedback. Only when the ratio leaves the deadband does the
// effective factor become the ratio itself (clamped to [1/MaxFactor,
// MaxFactor]), at which point Apply scales the planner's per-(kind,
// object) benefits by it.
//
// This is deliberately a different mechanism from the profiler's count
// audit (internal/prof's drift score): that discards a kind's profile
// and re-opens its sampling window when sampled counts shift —
// expensive, and blind until the re-profile completes. Feedback keeps
// the profile and rescales what the planner derives from it — cheap,
// immediate, and able to correct errors no re-profile can see (a wrong
// calibration factor produces exactly the same wrong estimate twice).
// When an effective factor moves multiplicatively past ReplanThreshold
// relative to its value at the last placement decision (Snapshot), the
// runtime triggers an O(Δ) replan through the same kind-invalidation
// hooks the adaptive sampling controller uses, bounded by a per-run
// ReplanBudget so a noisy workload cannot thrash.
package feedback

import (
	"slices"

	"repro/internal/task"
)

// MaxFactor clamps effective correction factors to [1/MaxFactor,
// MaxFactor]: a correction beyond 8x says "the model is useless here",
// and scaling benefits further would just hand the knapsack garbage of
// the opposite sign.
const MaxFactor = 8

// warmupObs is how many observations a pair must accumulate before its
// factor can leave 1.0: the seconds EWMAs need to cover at least one
// full role mix (main operand plus halo reads) before their ratio means
// anything.
const warmupObs = 6

// Estimator constants.
const (
	// Alpha is the EWMA gain applied to each execution's observed and
	// predicted seconds. Higher converges faster but lets a single
	// light-role execution swing the ratio harder.
	Alpha = 0.125
	// Deadband is the multiplicative dead zone around 1.0: a pair's
	// effective factor stays exactly 1.0 while max(f, 1/f) <= 1+Deadband
	// (corrections engage beyond 3x). The deadband absorbs the model's
	// inherent residual — per-pair role mixing the seconds EWMAs cannot
	// fully average out, sampling bias, latency/bandwidth regime flips —
	// measured at up to ~2.5x on the reference workloads with exact
	// profiles, so only genuine model error steers placement.
	Deadband = 2.0
	// ReplanThreshold triggers a replan when an effective factor moves
	// multiplicatively more than 1+ReplanThreshold away from its value
	// at the last plan.
	ReplanThreshold = 0.5
	// ReplanBudget bounds feedback-triggered replans per run.
	ReplanBudget = 4
)

// Config controls the online correction estimator.
type Config struct {
	// Enabled turns the feedback loop on. Off (the default) runs
	// bit-identically to a build without the subsystem.
	Enabled bool
}

// Estimator maintains the per-(kind, object) correction factors. All
// state is flat kind-major matrices over the graph's dense kind and
// object indices, so Observe is allocation-free on the hot path.
type Estimator struct {
	nobj int
	// obsEwma and predEwma are the decayed seconds accumulators per pair;
	// their ratio is the pair's raw correction factor.
	obsEwma  []float64
	predEwma []float64
	// count is the pair's observation count, gating the warmup.
	count []int32
	// eff is the effective factor the planner sees: exactly 1.0 inside
	// the deadband (and through the warmup), the clamped ratio outside.
	eff []float64
	// snap pins the effective factors at the last placement decision;
	// ShouldReplan measures movement against it.
	snap []float64
	// observations counts Observe calls that produced a usable sample.
	observations int
}

// New returns an Estimator for a graph with the given dense kind and
// object counts.
func New(kinds, objects int) *Estimator { return new(Estimator).Reset(kinds, objects) }

// Reset re-initializes e for a new graph exactly as New would, reusing
// its buffers, and returns e.
func (e *Estimator) Reset(kinds, objects int) *Estimator {
	n := kinds * objects
	e.nobj, e.observations = objects, 0
	for _, f := range []*[]float64{&e.obsEwma, &e.predEwma, &e.eff, &e.snap} {
		*f = slices.Grow((*f)[:0], n)[:n]
	}
	e.count = slices.Grow(e.count[:0], n)[:n]
	clear(e.obsEwma)
	clear(e.predEwma)
	clear(e.count)
	for i := range e.eff {
		e.eff[i] = 1
		e.snap[i] = 1
	}
	return e
}

// Footprint returns the bytes e's reusable buffers hold.
func (e *Estimator) Footprint() int {
	return 8*(cap(e.obsEwma)+cap(e.predEwma)+cap(e.eff)+cap(e.snap)) + 4*cap(e.count)
}

func (e *Estimator) ix(ki int, obj task.ObjectID) int { return ki*e.nobj + int(obj) }

// effective maps a raw EWMA to the factor the planner sees.
func (e *Estimator) effective(f float64) float64 {
	inv := 1 / f
	m := f
	if inv > m {
		m = inv
	}
	if m <= 1+Deadband {
		return 1
	}
	if f > MaxFactor {
		return MaxFactor
	}
	if f < 1.0/MaxFactor {
		return 1.0 / MaxFactor
	}
	return f
}

// Observe folds one completed execution's observed and predicted
// per-object memory seconds into the pair's seconds EWMAs and reports
// whether the pair's *effective* factor changed — the caller's signal
// to invalidate the kind's cached benefits. Non-positive inputs are
// ignored (no evidence either way).
func (e *Estimator) Observe(ki int, obj task.ObjectID, observedSec, predictedSec float64) (changed bool) {
	if observedSec <= 0 || predictedSec <= 0 {
		return false
	}
	ix := e.ix(ki, obj)
	e.obsEwma[ix] = (1-Alpha)*e.obsEwma[ix] + Alpha*observedSec
	e.predEwma[ix] = (1-Alpha)*e.predEwma[ix] + Alpha*predictedSec
	e.count[ix]++
	e.observations++
	if e.count[ix] < warmupObs {
		return false
	}
	eff := e.effective(e.obsEwma[ix] / e.predEwma[ix])
	if eff == e.eff[ix] {
		return false
	}
	e.eff[ix] = eff
	return true
}

// Factor returns the pair's effective correction factor (1.0 inside the
// deadband).
func (e *Estimator) Factor(ki int, obj task.ObjectID) float64 { return e.eff[e.ix(ki, obj)] }

// Apply scales a modeled per-execution benefit by the pair's effective
// correction factor — what the planner consumes in place of the raw
// profile-derived benefit. Inside the deadband the benefit is returned
// untouched — not multiplied by 1.0, *returned* — so a run with no
// active corrections computes bit-identical plans.
func (e *Estimator) Apply(ki int, obj task.ObjectID, benefit float64) float64 {
	f := e.eff[e.ix(ki, obj)]
	if f == 1 {
		return benefit
	}
	return benefit * f
}

// ShouldReplan reports whether the pair's effective factor has moved
// multiplicatively past the replan threshold since the last Snapshot.
func (e *Estimator) ShouldReplan(ki int, obj task.ObjectID) bool {
	ix := e.ix(ki, obj)
	f, s := e.eff[ix], e.snap[ix]
	r := f / s
	if r < 1 {
		r = s / f
	}
	return r > 1+ReplanThreshold
}

// Snapshot pins the current effective factors as the reference the next
// ShouldReplan queries measure movement against. Call it when a plan
// commits: the plan has consumed the corrections known so far, and only
// further movement justifies another.
func (e *Estimator) Snapshot() { copy(e.snap, e.eff) }

// Stats summarizes the estimator's end-of-run state.
type Stats struct {
	// Observations is how many usable observed/predicted ratios were
	// folded in.
	Observations int
	// Corrections is the number of pairs whose effective factor is
	// currently active (not 1.0).
	Corrections int
	// MinFactor and MaxFactor bound the active effective factors
	// (both 1 when no correction is active).
	MinFactor, MaxFactor float64
}

// Stats computes the current Stats.
func (e *Estimator) Stats() Stats {
	s := Stats{Observations: e.observations, MinFactor: 1, MaxFactor: 1}
	for _, f := range e.eff {
		if f == 1 {
			continue
		}
		s.Corrections++
		if f < s.MinFactor {
			s.MinFactor = f
		}
		if f > s.MaxFactor {
			s.MaxFactor = f
		}
	}
	return s
}
