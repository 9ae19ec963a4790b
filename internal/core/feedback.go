package core

import (
	"repro/internal/feedback"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/task"
)

// The feedback loop (internal/feedback) is the second — and cheaper —
// of the runtime's two drift responses, and the only one that can see
// calibration error:
//
//   - prof's count-level audit (complete()'s Record path): periodic
//     audit samples whose counts disagree with the stored profile
//     re-open the kind — the profile itself is wrong, so it is
//     discarded and re-learned.
//   - feedback (this file): the observed-vs-predicted estimator keeps
//     the profile and instead rescales what the planner derives from it
//     — correcting errors re-profiling cannot fix, because a wrong
//     constant factor or a misinferred MLP reproduces the same wrong
//     prediction from a fresh profile.
//
// Observation piggybacks on the completion hook the profiler already
// uses and charges no modeled overhead; corrections enter the planner
// through benefitPerExecTo — the single choke point the incremental
// planner, the reference planner (plan_ref_test.go) and the N-tier
// planner all funnel through — so the planAudit bit-identity contract
// holds with corrections active. An effective-factor change invalidates
// the kind through the same pt.invalidateKind hooks the profiler's
// Record path uses, keeping replans O(Δ).

// observeFeedback folds one completed task into the feedback estimator:
// for each distinct object the task touched, the observed per-object
// memory time (d.ObjSecOf — the same ground truth the profiler's
// time-share observations derive from) against the runtime-view
// prediction from the profiled estimate under the placement that held
// (model.PredictAccessSec, summed over the object's access entries).
// Placement of an in-use object is frozen while its task runs (inUse /
// migBusy), so completion-time tier fractions are the at-start ones.
func (r *runner) observeFeedback(t *task.Task, ki int, d *model.Demand) {
	invalidated := false
	trip := false
	nt := r.st.NumTiers()
	for i, a := range t.Accesses {
		// Dedup repeat accesses quadratically over the short access list
		// (no per-call map): observed ObjSecOf aggregates all
		// of an object's entries, so predict them together — each entry
		// with its own stream MLP, all with the pair's profiled per-entry
		// count estimate.
		dup := false
		for _, b := range t.Accesses[:i] {
			if b.Obj == a.Obj {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		est, ok := r.profiler.EstimateFor(ki, a.Obj, r.g.Object(a.Obj).Size)
		if !ok {
			continue
		}
		var shares [mem.MaxTiers]float64
		for ti := 0; ti < nt; ti++ {
			shares[ti] = r.st.TierFraction(a.Obj, mem.Tier(ti))
		}
		pred := r.params.PredictAccessSec(est.Loads, est.Stores, a.MLP, r.cfg.Tech.DistinguishRW, shares)
		for _, b := range t.Accesses[i+1:] {
			if b.Obj == a.Obj {
				pred += r.params.PredictAccessSec(est.Loads, est.Stores, b.MLP, r.cfg.Tech.DistinguishRW, shares)
			}
		}
		if r.fb.Observe(ki, a.Obj, d.ObjSecOf(a.Obj), pred) {
			invalidated = true
			if r.planned && r.fb.ShouldReplan(ki, a.Obj) {
				trip = true
			}
		}
	}
	if invalidated {
		// The kind's cached benefits were computed under the old factors.
		r.pt.invalidateKind(r.g, ki)
	}
	// A factor moving past the threshold requests one replan, against the
	// feedback budget — separate from maxReplans, which still bounds the
	// total. maybePlan's cooldown applies as usual.
	if trip && !r.needReplan && r.fbReplans < feedback.ReplanBudget {
		r.fbReplans++
		r.needReplan = true
	}
}
