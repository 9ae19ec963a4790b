package core

import (
	"sort"
	"testing"

	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/placement"
	"repro/internal/task"
	"repro/internal/workloads"
)

// This file retains the pre-optimization planner verbatim as a reference
// implementation, the same way internal/sim retains its reference engine:
// the equivalence test replays randomized runs through both planners and
// requires bit-identical plans (see plan_equiv_test.go). The deliberate
// deviations from the original are noted inline: the level plan's
// per-level aggregate iterates objects in sorted order instead of Go's
// random map order, a latent nondeterminism the optimized planner also
// fixes, and the local plan clamps the lookahead to the task count
// before widening it into a horizon — both planners share each so the
// comparison is exact. The profiler and benefitPerExecTo take the
// graph's kind index where the original passed the kind name.
//
// The reference allocates freely (maps per plan, slices per call); the
// optimized planner in plan.go replaces every one of those structures
// with dense bitsets and engine-owned scratch. Keep this file in sync
// with nothing: it is frozen on purpose.

// chunkSet is the reference planner's target-set representation.
type chunkSet map[heap.ChunkRef]bool

// benefitKey keys the reference planner's per-plan benefit cache.
type benefitKey struct {
	kind string
	obj  task.ObjectID
}

// refPlanResult is the reference planner's outcome.
type refPlanResult struct {
	kind      string
	global    chunkSet
	perTask   []chunkSet
	perLevel  []chunkSet
	predicted float64
	solverSec float64
}

// refObjBenefitTotals sums, per object, benefitPerExecTo over the future
// tasks that actually touch it.
func (r *runner) refObjBenefitTotals(future []*task.Task) map[task.ObjectID]float64 {
	totals := make(map[task.ObjectID]float64)
	cache := make(map[benefitKey]float64)
	for _, t := range future {
		for _, a := range t.Accesses {
			k := benefitKey{t.Kind, a.Obj}
			b, ok := cache[k]
			if !ok {
				b = r.benefitPerExecTo(r.g.KindIndex(t.ID), a.Obj, r.fastTier)
				cache[k] = b
			}
			totals[a.Obj] += b
		}
	}
	return totals
}

// refEstTaskSec predicts a task's duration under a target set: the
// profiled mean minus the modeled benefit of every targeted object it
// touches.
func (r *runner) refEstTaskSec(t *task.Task, target chunkSet) float64 {
	dur, ok := r.profiler.MeanDuration(r.g.KindIndex(t.ID))
	if !ok {
		dur = r.meanTaskSec()
	}
	for _, a := range t.Accesses {
		if r.refTargetFraction(a.Obj, target) == 1 {
			dur -= r.benefitPerExecTo(r.g.KindIndex(t.ID), a.Obj, r.fastTier)
		}
	}
	if dur < 0 {
		dur = 0
	}
	return dur
}

// refTargetFraction is the fraction of obj's chunks in the target set.
func (r *runner) refTargetFraction(obj task.ObjectID, target chunkSet) float64 {
	n := r.st.Chunks(obj)
	in := 0
	for i := 0; i < n; i++ {
		if target[heap.ChunkRef{Obj: obj, Index: i}] {
			in++
		}
	}
	return float64(in) / float64(n)
}

// refChunkRefs enumerates an object's chunks, allocating per call.
func (r *runner) refChunkRefs(obj task.ObjectID) []heap.ChunkRef {
	refs := make([]heap.ChunkRef, r.st.Chunks(obj))
	for i := range refs {
		refs[i] = heap.ChunkRef{Obj: obj, Index: i}
	}
	return refs
}

// refComputeGlobalPlan runs the cross-phase (whole-graph) search: one
// knapsack over every object's chunks, weighing each chunk by the total
// remaining benefit minus a one-time migration cost, then predicts the
// remaining execution time under the winning set.
func (r *runner) refComputeGlobalPlan(future []*task.Task) refPlanResult {
	totals := r.refObjBenefitTotals(future)
	var items []placement.Item
	for _, o := range r.g.Objects {
		benefit := totals[o.ID]
		if benefit == 0 {
			continue
		}
		refs := r.refChunkRefs(o.ID)
		per := benefit / float64(len(refs))
		for _, ref := range refs {
			size := r.st.ChunkSize(ref)
			cost := 0.0
			if r.st.Tier(ref) != r.fastTier {
				// The promotion is enqueued at plan time; the first future
				// user bounds the hiding window.
				firstUse := task.TaskID(len(r.g.Tasks))
				if nu, ok := r.g.NextUser(o.ID, r.frontier()-1); ok {
					firstUse = nu
				}
				cost = r.params.MigrationCostBetween(size, r.overlapSec(r.frontier()-1, firstUse, r.meanTaskSec()), 0, r.fastTier)
			}
			items = append(items, placement.Item{
				Ref:    ref,
				Size:   size,
				Weight: per - cost,
			})
		}
	}
	chosen := placement.Knapsack(items, r.cfg.HMS.Capacity(r.fastTier), placement.DefaultGranularity)
	target := make(chunkSet, len(chosen))
	for _, i := range chosen {
		target[items[i].Ref] = true
	}
	predicted := 0.0
	for _, t := range future {
		predicted += r.refEstTaskSec(t, target)
	}
	predicted /= float64(r.cfg.Workers)
	// One-time migration exposure: copy time beyond what early execution
	// can hide.
	var copySec float64
	for _, i := range chosen {
		if r.st.Tier(items[i].Ref) != r.fastTier {
			copySec += float64(items[i].Size) / r.cfg.HMS.CopyBW
		}
	}
	hide := float64(min(len(future), r.cfg.Lookahead)) * r.meanTaskSec() / float64(r.cfg.Workers)
	if exposed := copySec - hide; exposed > 0 {
		predicted += exposed
	}
	return refPlanResult{kind: "global", global: target, predicted: predicted,
		solverSec: float64(len(items)) * solverItemSec}
}

// refComputeLocalPlan runs the per-task (phase-local) search: walk the
// future tasks in submission order, maintaining a hypothetical DRAM
// content, and solve a knapsack per task over the chunks it touches
// *plus* the chunks hypothetically resident — so every decision weighs
// newcomers against incumbents with the same currency.
func (r *runner) refComputeLocalPlan(future []*task.Task) refPlanResult {
	resident := make(chunkSet)
	for _, o := range r.g.Objects {
		for _, ref := range r.refChunkRefs(o.ID) {
			if r.st.Tier(ref) == r.fastTier {
				resident[ref] = true
			}
		}
	}
	capacity := r.cfg.HMS.Capacity(r.fastTier)

	// Per-object average benefit per future use.
	totals := r.refObjBenefitTotals(future)
	futureUses := make(map[task.ObjectID]int)
	for _, t := range future {
		for _, a := range t.Accesses {
			futureUses[a.Obj]++
		}
	}
	perUse := make(map[task.ObjectID]float64, len(totals))
	for obj, total := range totals {
		if n := futureUses[obj]; n > 0 {
			perUse[obj] = total / float64(n)
		}
	}

	// Deviation: the lookahead is clamped to the task count before it is
	// widened, so a huge lookahead cannot overflow 8*Lookahead; past the
	// last task every horizon counts the same uses.
	horizon := task.TaskID(8 * min(r.cfg.Lookahead, len(r.g.Tasks)))
	if horizon < 64 {
		horizon = 64
	}
	usesAhead := func(obj task.ObjectID, from task.TaskID) int {
		users := r.g.Users(obj)
		lo := sort.Search(len(users), func(i int) bool { return users[i] > from })
		hi := sort.Search(len(users), func(i int) bool { return users[i] > from+horizon })
		return hi - lo
	}

	perTask := make([]chunkSet, len(r.g.Tasks))
	predicted := 0.0
	items := 0
	kinds := map[string]bool{}
	for _, t := range future {
		kinds[t.Kind] = true

		// Candidate objects: the task's own plus the incumbents.
		candObjs := make(map[task.ObjectID]bool, len(t.Accesses))
		for _, a := range t.Accesses {
			candObjs[a.Obj] = true
		}
		for ref := range resident {
			candObjs[ref.Obj] = true
		}
		objs := make([]task.ObjectID, 0, len(candObjs))
		for obj := range candObjs {
			objs = append(objs, obj)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })

		var cand []placement.Item
		var residentBytes int64
		for ref := range resident {
			residentBytes += r.st.ChunkSize(ref)
		}
		for _, obj := range objs {
			pu := perUse[obj]
			if pu <= 0 {
				continue
			}
			refs := r.refChunkRefs(obj)
			each := pu * float64(usesAhead(obj, t.ID)) / float64(len(refs))
			for _, ref := range refs {
				size := r.st.ChunkSize(ref)
				w := each
				if !resident[ref] {
					from := task.TaskID(-1)
					if pu2, ok := r.g.PrevUser(obj, t.ID); ok {
						from = pu2
					}
					w -= r.params.MigrationCostBetween(size, r.overlapSec(from, t.ID, r.meanTaskSec()), 0, r.fastTier)
					if residentBytes+size > capacity {
						// Paper's extra_COST: demote just enough.
						w -= float64(size) / r.cfg.HMS.CopyBW
					}
				}
				cand = append(cand, placement.Item{Ref: ref, Size: size, Weight: w})
			}
		}
		items += len(cand)
		chosen := placement.Knapsack(cand, capacity, placement.DefaultGranularity)
		target := make(chunkSet, len(chosen))
		for _, i := range chosen {
			target[cand[i].Ref] = true
		}
		// The knapsack owns the residency decision: incumbents it did not
		// re-choose are hypothetically demoted.
		resident = target
		perTask[t.ID] = target
		predicted += r.refEstTaskSec(t, target)
	}
	predicted /= float64(r.cfg.Workers)
	return refPlanResult{kind: "local", perTask: perTask, predicted: predicted,
		solverSec: float64(len(kinds))*20*solverItemSec + float64(items)*solverLookupSec}
}

// refComputeLevelPlan is the PhaseBased comparator: one knapsack per
// topological level over the objects its tasks touch, enforced at level
// boundaries.
func (r *runner) refComputeLevelPlan(future []*task.Task) refPlanResult {
	levels := r.levels
	maxLevel := 0
	for _, lv := range levels {
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	perLevel := make([]chunkSet, maxLevel+1)
	items := 0
	predicted := 0.0
	byLevel := make([][]*task.Task, maxLevel+1)
	for _, t := range future {
		byLevel[levels[t.ID]] = append(byLevel[levels[t.ID]], t)
	}
	// Hypothetical residency carried across levels: promoting an object
	// that is already resident from the previous level costs nothing, so
	// stable hot sets stay put instead of bouncing at every boundary.
	resident := make(chunkSet)
	for _, o := range r.g.Objects {
		for _, ref := range r.refChunkRefs(o.ID) {
			if r.st.Tier(ref) == r.fastTier {
				resident[ref] = true
			}
		}
	}
	for lv, tasks := range byLevel {
		if len(tasks) == 0 {
			continue
		}
		// Aggregate benefit per object over the level's tasks.
		agg := make(map[task.ObjectID]float64)
		for _, t := range tasks {
			for _, a := range t.Accesses {
				agg[a.Obj] += r.benefitPerExecTo(r.g.KindIndex(t.ID), a.Obj, r.fastTier)
			}
		}
		// Deterministic candidate order (the one deviation from the
		// original, which iterated the map in Go's random order and could
		// pick different knapsack tie-breaks run to run).
		objs := make([]task.ObjectID, 0, len(agg))
		for obj := range agg {
			objs = append(objs, obj)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		var cand []placement.Item
		for _, obj := range objs {
			benefit := agg[obj]
			if benefit <= 0 {
				continue
			}
			refs := r.refChunkRefs(obj)
			each := benefit / float64(len(refs))
			for _, ref := range refs {
				size := r.st.ChunkSize(ref)
				w := each
				if !resident[ref] {
					w -= r.params.MigrationCostBetween(size, 0, 0, r.fastTier)
				}
				cand = append(cand, placement.Item{Ref: ref, Size: size, Weight: w})
			}
		}
		items += len(cand)
		chosen := placement.Knapsack(cand, r.cfg.HMS.Capacity(r.fastTier), placement.DefaultGranularity)
		target := make(chunkSet, len(chosen))
		for _, i := range chosen {
			target[cand[i].Ref] = true
		}
		if len(target) == 0 {
			// No opinion: keep whatever is resident rather than flushing.
			for _, t := range tasks {
				predicted += r.refEstTaskSec(t, resident)
			}
			continue
		}
		perLevel[lv] = target
		// Enforcement only demotes to make room, so residency grows to
		// the union (capacity permitting); mirror that optimistically.
		for ref := range target {
			resident[ref] = true
		}
		for _, t := range tasks {
			predicted += r.refEstTaskSec(t, resident)
		}
	}
	predicted /= float64(r.cfg.Workers)
	return refPlanResult{kind: "phase", perLevel: perLevel, predicted: predicted,
		solverSec: float64(len(perLevel))*solverItemSec + float64(items)*solverLookupSec}
}

// RefGlobal, RefLocal and RefReplan are the reference-planner twins.
func (pb *PlannerBench) RefGlobal() float64 {
	return pb.r.refComputeGlobalPlan(pb.future()).predicted
}

func (pb *PlannerBench) RefLocal() float64 {
	return pb.r.refComputeLocalPlan(pb.future()).predicted
}

func (pb *PlannerBench) RefReplan() float64 {
	pb.perturb()
	f := pb.future()
	g := pb.r.refComputeGlobalPlan(f)
	l := pb.r.refComputeLocalPlan(f)
	if l.predicted < g.predicted {
		return l.predicted
	}
	return g.predicted
}

// refPlannerBench is the warm frozen state the root planner benchmarks
// time the optimized searches on: cholesky at its default scale, 128 MB
// DRAM in front of half-bandwidth NVM, Tahoe, with the benefit and
// knapsack caches warmed by one optimized global and local search.
func refPlannerBench(b *testing.B) *PlannerBench {
	b.Helper()
	s, err := workloads.ByName("cholesky")
	if err != nil {
		b.Fatal(err)
	}
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	pb, err := NewPlannerBench(s.Build(workloads.Params{}).Graph, DefaultConfig(h))
	if err != nil {
		b.Fatal(err)
	}
	pb.Global()
	pb.Local()
	return pb
}

// BenchmarkPlannerGlobalRef, BenchmarkPlannerLocalRef and
// BenchmarkPlannerReplanRef time the reference planner on the state the
// root BenchmarkPlannerGlobal/Local/Replan use, so each ratio is the
// optimization's honest speedup.
func BenchmarkPlannerGlobalRef(b *testing.B) {
	pb := refPlannerBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.RefGlobal()
	}
}

func BenchmarkPlannerLocalRef(b *testing.B) {
	pb := refPlannerBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.RefLocal()
	}
}

func BenchmarkPlannerReplanRef(b *testing.B) {
	pb := refPlannerBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.RefReplan()
	}
}
