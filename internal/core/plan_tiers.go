package core

import (
	"repro/internal/mem"
	"repro/internal/placement"
	"repro/internal/task"
)

// This file is the planner's N-tier search, used only on machines with
// more than two tiers (r.st.NumTiers() > 2). On two tiers a tier
// assignment is a DRAM target set, which the global and local searches
// in plan.go already cover.
//
// The tier plan generalizes the global search: one multiple-choice
// knapsack (placement.AssignTiers) assigns every chunk a tier, weighing
// tier t by the object's remaining profiled benefit of living on t
// rather than on the slow default tier 0 (model.BenefitProfiledBetween),
// minus the one-time migration cost from the chunk's current tier
// (model.MigrationCostBetween). The fastest tier's winners double as the
// reactive target set (plan.global), so dispatch-time promotion and the
// per-task request path work unchanged.

// computeTierPlan runs the whole-graph search over N tiers and returns a
// plan of kind "tier": per-chunk tier assignments in tierTo, with the
// fastest tier's set mirrored into global for the reactive paths.
func (r *runner) computeTierPlan(future []*task.Task) planResult {
	p := r.pt
	nt := r.st.NumTiers()
	fast := r.st.Fastest()

	// Per-(kind, object) per-tier benefits, computed once per pair per
	// plan; per-object totals fold them over unstarted uses, mirroring
	// refreshTotals.
	pair := make([][]float64, p.nk*p.nobj)
	pairFor := func(k int32, obj task.ObjectID) []float64 {
		ix := int(k)*p.nobj + int(obj)
		if b := pair[ix]; b != nil {
			return b
		}
		b := make([]float64, nt)
		for t := 1; t < nt; t++ {
			b[t] = r.benefitPerExecTo(int(k), obj, mem.Tier(t))
		}
		pair[ix] = b
		return b
	}
	totals := make([][]float64, p.nobj)
	for obj := 0; obj < p.nobj; obj++ {
		sum := make([]float64, nt)
		any := false
		for _, u := range p.uses[obj] {
			if r.started[u.task] {
				continue
			}
			b := pairFor(u.kind, task.ObjectID(obj))
			for t := 1; t < nt; t++ {
				sum[t] += b[t]
				if sum[t] != 0 {
					any = true
				}
			}
		}
		if any {
			totals[obj] = sum
		}
	}

	// One TierItem per chunk of every object with any nonzero benefit.
	var items []placement.TierItem
	meanSec := r.meanTaskSec()
	for _, o := range r.g.Objects {
		tot := totals[o.ID]
		if tot == nil {
			continue
		}
		refs := r.st.Refs(o.ID)
		base := r.st.ChunkBase(o.ID)
		firstUse := task.TaskID(len(r.g.Tasks))
		if nu, ok := r.g.NextUser(o.ID, r.frontier()-1); ok {
			firstUse = nu
		}
		overlap := r.overlapSec(r.frontier()-1, firstUse, meanSec)
		for i, ref := range refs {
			size := p.chunkSize[base+i]
			cur := r.st.Tier(ref)
			w := make([]float64, nt)
			for t := 1; t < nt; t++ {
				per := tot[t] / float64(len(refs))
				cost := 0.0
				if cur != mem.Tier(t) {
					cost = r.params.MigrationCostBetween(size, overlap, cur, mem.Tier(t))
				}
				w[t] = per - cost
			}
			items = append(items, placement.TierItem{Ref: ref, Size: size, Weight: w})
		}
	}

	caps := make([]int64, nt)
	for t := 1; t < nt; t++ {
		caps[t] = r.cfg.HMS.Capacity(mem.Tier(t))
		if r.quarantinedTier(mem.Tier(t)) {
			caps[t] = 0 // closed: AssignTiers skips the tier's stage
		}
	}
	assign := placement.AssignTiers(p.solver, items, caps, placement.DefaultGranularity)

	// tierTo over the global chunk index: -1 = no opinion (chunk was not a
	// candidate; it stays wherever it is, demoted only on demand).
	tierTo := make([]mem.Tier, r.st.TotalChunks())
	for ix := range tierTo {
		tierTo[ix] = -1
	}
	target := p.globalBuf
	target.clearAll()
	for i, t := range assign {
		ix := r.st.ChunkIndex(items[i].Ref)
		tierTo[ix] = mem.Tier(t)
		if mem.Tier(t) == fast {
			target.set(ix)
		}
	}

	// Predicted remaining time under the fastest-tier set (the middle
	// tiers' savings are real but second-order; the estimate only ranks
	// replans, it never gates the plan's application).
	predicted := 0.0
	for _, t := range future {
		predicted += r.estTaskSec(t, target)
	}
	predicted /= float64(r.cfg.Workers)

	return planResult{kind: "tier", global: target, tierTo: tierTo,
		predicted: predicted,
		solverSec: float64(len(items)*(nt-1)) * solverItemSec}
}

// enforceTierPlan enqueues the tier plan's migrations, fastest tier
// first so its promotions claim the copy channel ahead of middle-tier
// placements. Chunks the plan has no opinion on, and chunks assigned
// tier 0, are left where they are — they demote only when a faster
// tier's promotion needs their space, exactly like the two-tier
// enforcement.
func (r *runner) enforceTierPlan() {
	for t := r.st.Fastest(); t >= 1; t-- {
		for ix, to := range r.plan.tierTo {
			if to != t {
				continue
			}
			ref := r.st.RefAt(ix)
			if r.st.TierAt(ix) == to || r.mig.Busy(ref) || r.promoBlock[ix] {
				continue
			}
			r.tryPromoteTo(ref, to, r.plan.global, -1)
		}
	}
}
