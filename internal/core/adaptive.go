package core

import (
	"math"

	"repro/internal/placement"
	"repro/internal/prof"
	"repro/internal/task"
)

// The adaptive-sampling controller closes the loop between profiling
// accuracy and placement sensitivity. After every placement decision it
// asks the knapsack how close each object's chunks sit to a membership
// flip (placement.Solver.Margins — a memo hit for the plan just
// computed), converts the flip distance into a relative tolerance on the
// object's per-chunk benefit, and compares it against the profiler's
// current relative error for each (kind, object) pair still ahead of the
// frontier. Only kinds whose estimates are too noisy to trust *for a
// decision that could actually flip* get their sampling interval
// densified and their profile reopened; everything comfortably inside
// the margin keeps the cheap base rate. The result: accuracy is bought
// where placement needs it, not everywhere.
//
// The controller buys accuracy; it cannot help when the model itself is
// wrong — a miscalibrated constant factor reproduces the same wrong
// benefit from an arbitrarily dense profile. That error class belongs
// to the observed-vs-predicted feedback loop (feedback.go,
// internal/feedback), which keeps the profile and rescales what the
// planner derives from it instead.

// adaptBoost is the minimum densification factor applied to a kind's
// sampling interval when its noise exceeds a flip margin; the actual
// factor is error-targeted (see boostInterval). One boost per kind per
// run: a second would densify again without new evidence that the first
// was insufficient.
const adaptBoost = 8

// adaptSafety widens the boost trigger: a kind is densified when its
// error exceeds half the flip tolerance, not the full tolerance — the
// margin is a first-order density-cut heuristic, and for PhaseBased it
// is read off the global knapsack while the plans are per-level, so
// trusting it to the wire loses real flips.
const adaptSafety = 2

// boostInterval picks the sampling interval that brings a pair's
// relative error err down to half its flip tolerance tol. Error scales
// as sqrt(interval) (err = Jitter/sqrt(count/interval)), so the target
// interval is ivl*(tol/(2*err))^2 — clamped to densify by at least
// adaptBoost and floored at the default calibrated rate: adaptive
// sampling recovers dense-rate fidelity for flip-sensitive kinds, it
// never samples beyond what the paper's profiler is calibrated for.
func boostInterval(ivl int64, err, tol float64) int64 {
	target := ivl / adaptBoost
	if !math.IsInf(err, 1) && err > 0 {
		ratio := tol / (2 * err)
		if t := int64(float64(ivl) * ratio * ratio); t < target {
			target = t
		}
	} else if math.IsInf(err, 1) {
		target = 0 // unknown error: densify to the floor
	}
	if target < prof.DefaultSamplingInterval {
		target = prof.DefaultSamplingInterval
	}
	return target
}

// adaptMaxRounds caps how many boost rounds (pre-plan veto included) a
// run may trigger: each round reopens kinds and forces a replan, and
// rounds past the first couple correct ever-smaller residuals at full
// replan cost.
const adaptMaxRounds = 2

// marginsAudit, when set by tests, sees each sensitivity query's memo hit.
var marginsAudit func(r *runner, hit bool)

// adaptSampling runs one controller round (see the package comment
// above) and returns how many kinds it densified.
func (r *runner) adaptSampling() (boosted int) {
	if !r.cfg.Prof.Adaptive || r.pt == nil || r.replans >= maxReplans || r.adaptRounds >= adaptMaxRounds {
		return 0
	}
	// Noise-free profiles have zero relative error everywhere: no boost
	// can ever fire, so skip (and don't charge for) the sensitivity query.
	if r.cfg.Prof.Jitter <= 0 {
		return 0
	}
	p := r.pt

	// Boosts are one-shot: once a densified re-profile has completed (the
	// kind is Profiled again), drop the kind back to the base rate so
	// later audits and coverage passes sample cheaply — the tightened
	// estimates persist either way.
	for ki, b := range p.kindBoosted {
		if !b {
			continue
		}
		if r.profiler.Profiled(ki) && r.profiler.IntervalFor(ki) != r.profiler.BaseInterval() {
			r.profiler.SetKindInterval(ki, r.profiler.BaseInterval())
		}
	}

	// The global knapsack's item list, so the embedded Solve call is a
	// memo lookup for Tahoe's global plan.
	items := r.globalItems(p.adaptItems[:0])
	p.adaptItems = items
	if len(items) == 0 {
		return 0
	}
	misses := p.solver.Misses
	p.adaptMargins = p.solver.Margins(items, r.cfg.HMS.Capacity(r.fastTier), placement.DefaultGranularity, p.adaptMargins)
	if marginsAudit != nil {
		marginsAudit(r, p.solver.Misses == misses)
	}
	// The sensitivity query costs a table lookup per item when it reuses
	// the plan's memoized solve, a DP pass when it cannot (PhaseBased,
	// whose level plans solve different knapsacks).
	perItem := solverLookupSec
	if p.solver.Misses != misses {
		perItem = solverItemSec
	}
	over := float64(len(items)) * perItem
	r.overheadSec += over
	r.overheadPlan += over

	// Fold per-chunk margins into a per-object tolerance: the smallest
	// relative perturbation of the object's per-chunk benefit that could
	// flip any of its chunks.
	rel := p.adaptObjRel
	for i := range rel {
		rel[i] = math.Inf(1)
	}
	for i := range items {
		obj := items[i].Ref.Obj
		total := p.totals[obj]
		if total == 0 {
			continue
		}
		per := math.Abs(total) / float64(len(r.st.Refs(obj)))
		if m := p.adaptMargins[i] / per; m < rel[obj] {
			rel[obj] = m
		}
	}

	// Densify kinds whose profile noise exceeds a sensitive object's
	// tolerance — but only kinds with enough executions left to re-fill a
	// profiling window and still act on it.
	win := r.cfg.Prof.Window
	if win <= 0 {
		win = 2
	}
	for obj, tol := range rel {
		if math.IsInf(tol, 1) {
			continue
		}
		for _, u := range r.g.Uses(task.ObjectID(obj)) {
			if r.started[u.Task] {
				continue
			}
			ki := int(u.Kind)
			if p.kindBoosted[ki] || r.kindRemaining[ki] <= win {
				continue
			}
			errRel := r.profiler.RelErrorFor(ki, task.ObjectID(obj))
			if errRel*adaptSafety <= tol {
				continue
			}
			ivl := r.profiler.IntervalFor(ki)
			boostIvl := boostInterval(ivl, errRel, tol)
			if boostIvl >= ivl {
				continue // already at or beyond the calibrated floor
			}
			p.kindBoosted[ki] = true
			r.profiler.SetKindInterval(ki, boostIvl)
			r.reopenKind(ki)
			boosted++
		}
	}
	if boosted > 0 {
		r.adaptRounds++
	}
	return boosted
}
