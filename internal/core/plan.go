package core

import (
	"math/bits"
	"slices"

	"repro/internal/mem"
	"repro/internal/placement"
	"repro/internal/task"
)

// The planner is the runtime's decision core and, since the simulator
// core went incremental (PR 1), the dominant cost of every Tahoe cell.
// This file is its allocation-light implementation:
//
//   - target sets are planSet bitsets over the heap's dense global chunk
//     index instead of map[ChunkRef]bool;
//   - the hypothetical resident footprint is an int64 accumulator
//     maintained on membership change, not a rescan per task;
//   - the local search's per-task knapsacks skip the solver's memo, and
//     its user-list lookups are forward-only cursors (usersAround);
//   - per-object benefit totals persist across maybePlan calls in
//     plannerState and are refreshed only for objects dirtied since the
//     last plan (frontier advance or profile change) — O(Δ) replans;
//   - all scratch (candidate slices, bitsets, the per-task target
//     backing store) is runner-owned and reused across plans.
//
// Correctness contract: every plan must be bit-identical (plan kind,
// target membership, Float64bits of predicted and solverSec) to the
// retained reference planner in plan_ref_test.go. That forbids
// shortcuts like maintaining float sums by subtraction — instead, a
// dirty object's total is re-folded from its per-object use table in
// exactly the reference's addition order. plan_equiv_test.go enforces
// the contract over randomized runs; see DESIGN.md "Planner internals".

// planSet is a set of chunks targeted for DRAM residency: a dense bitset
// over heap.State's global chunk index. nil means "no target".
type planSet []uint64

func planWords(totalChunks int) int { return (totalChunks + 63) / 64 }

func (s planSet) has(ix int) bool {
	if s == nil {
		return false
	}
	return s[ix>>6]&(1<<uint(ix&63)) != 0
}

func (s planSet) set(ix int) { s[ix>>6] |= 1 << uint(ix&63) }

func (s planSet) clearAll() {
	for i := range s {
		s[i] = 0
	}
}

func (s planSet) orWith(o planSet) {
	for i, w := range o {
		s[i] |= w
	}
}

func (s planSet) equal(o planSet) bool {
	if len(s) != len(o) {
		return false
	}
	for i, w := range s {
		if w != o[i] {
			return false
		}
	}
	return true
}

func (s planSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// containsRange reports whether all of [lo, lo+n) is set. n must be > 0.
func (s planSet) containsRange(lo, n int) bool {
	if s == nil {
		return false
	}
	hi := lo + n
	w0, w1 := lo>>6, (hi-1)>>6
	for w := w0; w <= w1; w++ {
		m := ^uint64(0)
		if w == w0 {
			m &= ^uint64(0) << uint(lo&63)
		}
		if w == w1 {
			if r := hi & 63; r != 0 {
				m &= (uint64(1) << uint(r)) - 1
			}
		}
		if s[w]&m != m {
			return false
		}
	}
	return true
}

// forEach visits the set bits in ascending index order — for chunk
// indices, ascending (object, chunk) order, matching the sorted-map
// iteration the reference enforcement paths used.
func (s planSet) forEach(fn func(ix int)) {
	for w, word := range s {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// planResult is the outcome of the placement decision step.
type planResult struct {
	kind string // "global", "local", "phase", or "static"
	// global is the single whole-run target set (global search).
	global planSet
	// perTask[taskID] is the target set when the task runs (local search).
	perTask []planSet
	// perLevel[level] is the target set per topological level (PhaseBased).
	perLevel []planSet
	// tierTo, on machines with more than two tiers (plan kind "tier"), is
	// the assigned tier per global chunk index; -1 means no opinion. The
	// fastest tier's assignees are mirrored into global.
	tierTo []mem.Tier
	// predicted is the model's estimate of the remaining execution time
	// under the plan; the runtime picks the smaller of global vs local.
	predicted float64
	// solverSec is the decision's modeled runtime cost, a formula over
	// item and kind counts (see the solver cost constants).
	solverSec float64
}

// objUse is one access entry to an object: the task and its kind index.
// An object's uses are stored in (task, access-position) order — the
// exact order the reference's objBenefitTotals adds benefits in, so a
// per-object re-fold reproduces its float sum bit for bit.
type objUse struct {
	task int32
	kind int32
}

// plannerState is the incremental planning state a runner keeps for the
// profiling policies (Tahoe, PhaseBased). Everything here is derived
// from the graph, the heap's chunk index, and the profiler; it persists
// across maybePlan calls so a replan touches only what changed.
type plannerState struct {
	words int // bitset words per planSet
	nobj  int
	nk    int

	chunkSize []int64 // per global chunk index (immutable)

	uses     [][]objUse        // per object: future-relevant access entries
	kindObjs [][]task.ObjectID // per kind: distinct objects it touches
	users    [][]task.TaskID   // per object: the graph's user list (g.Users)

	// futureUses[obj] counts access entries among not-yet-started tasks;
	// decremented as tasks start. Integer, hence exactly the reference's
	// per-plan recount.
	futureUses []int32

	// Per-(kind, object) benefit cache: benefitPerExecTo is pure given the
	// profiler's state for the kind, so entries are invalidated whenever
	// the kind records a profile or is marked stale.
	pairB  []float64 // nk * nobj
	pairOK []bool

	// Persistent per-object benefit totals over unstarted tasks, plus the
	// dirty set driving O(Δ) refresh.
	totals   []float64
	objDirty []bool
	dirty    []task.ObjectID

	solver *placement.Solver

	// Scratch reused across plans.
	future   []*task.Task
	items    []placement.Item
	chosen   []int
	accObjs  []task.ObjectID
	candObjs []task.ObjectID
	resObjs  []task.ObjectID
	objMark  []bool
	kindMark []bool
	resident planSet
	keep     planSet // proactiveScan window union
	seen     planSet // proactiveScan dedup
	wants    []wantPromo

	ahead, beyond []int // local-search cursors into users (usersAround)

	byLevel  [][]*task.Task // level-plan (PhaseBased) scratch
	agg      []float64
	levelBuf []uint64 // backing store of perLevel's targets

	// Plan storage, overwritten by the next plan: the global target, the
	// per-task view table and its flat backing buffer (consecutive tasks
	// with identical targets alias one committed copy).
	globalBuf planSet
	perTask   []planSet
	taskBuf   []uint64
	perLevel  []planSet
}

type wantPromo struct {
	ix  int // global chunk index
	obj task.ObjectID
	id  task.TaskID
}

// newPlannerState builds the planner's derived tables. All objects start
// dirty; the first plan folds every total once.
func newPlannerState(r *runner) *plannerState {
	g, st := r.g, r.st
	nobj := len(g.Objects)
	nk := len(g.Kinds())
	total := st.TotalChunks()
	p := &plannerState{
		words:      planWords(total),
		nobj:       nobj,
		nk:         nk,
		chunkSize:  make([]int64, total),
		uses:       make([][]objUse, nobj),
		kindObjs:   make([][]task.ObjectID, nk),
		users:      make([][]task.TaskID, nobj),
		futureUses: make([]int32, nobj),
		pairB:      make([]float64, nk*nobj),
		pairOK:     make([]bool, nk*nobj),
		totals:     make([]float64, nobj),
		objDirty:   make([]bool, nobj),
		solver:     placement.NewSolver(),
		objMark:    make([]bool, nobj),
		kindMark:   make([]bool, nk),
		ahead:      make([]int, nobj),
		beyond:     make([]int, nobj),
	}
	for ix := 0; ix < total; ix++ {
		p.chunkSize[ix] = st.ChunkSize(st.RefAt(ix))
	}
	for obj := range p.users {
		p.users[obj] = g.Users(task.ObjectID(obj))
	}
	// Use tables: count, then fill flat, preserving (task, access) order.
	counts := make([]int32, nobj)
	for _, t := range g.Tasks {
		for _, a := range t.Accesses {
			counts[a.Obj]++
		}
	}
	var flatTotal int32
	for _, c := range counts {
		flatTotal += c
	}
	flat := make([]objUse, flatTotal)
	offs := make([]int32, nobj)
	var off int32
	for obj, c := range counts {
		p.uses[obj] = flat[off : off+c : off+c]
		offs[obj] = off
		off += c
	}
	pairMark := make([]bool, nk*nobj)
	for _, t := range g.Tasks {
		k := int32(g.KindIndex(t.ID))
		for _, a := range t.Accesses {
			flat[offs[a.Obj]] = objUse{task: int32(t.ID), kind: k}
			offs[a.Obj]++
			p.futureUses[a.Obj]++
			if ix := int(k)*nobj + int(a.Obj); !pairMark[ix] {
				pairMark[ix] = true
				p.kindObjs[k] = append(p.kindObjs[k], a.Obj)
			}
		}
	}
	p.dirty = make([]task.ObjectID, 0, nobj)
	for obj := 0; obj < nobj; obj++ {
		p.objDirty[obj] = true
		p.dirty = append(p.dirty, task.ObjectID(obj))
	}
	p.resident = make(planSet, p.words)
	p.keep = make(planSet, p.words)
	p.seen = make(planSet, p.words)
	p.globalBuf = make(planSet, p.words)
	p.perTask = make([]planSet, len(g.Tasks))
	return p
}

// markDirty queues an object's total for re-folding at the next plan.
func (p *plannerState) markDirty(obj task.ObjectID) {
	if !p.objDirty[obj] {
		p.objDirty[obj] = true
		p.dirty = append(p.dirty, obj)
	}
}

// taskStarted records a task's start: its access entries leave the
// future, dirtying the touched objects.
func (p *plannerState) taskStarted(t *task.Task) {
	for _, a := range t.Accesses {
		p.futureUses[a.Obj]--
		p.markDirty(a.Obj)
	}
}

// invalidateKind drops the kind's cached benefits and dirties every
// object it touches — called when the kind records a profile (estimates
// are running means, so every Record shifts them) or is marked stale.
func (p *plannerState) invalidateKind(k int) {
	clear(p.pairOK[k*p.nobj : (k+1)*p.nobj])
	for _, obj := range p.kindObjs[k] {
		p.markDirty(obj)
	}
}

// benefit is the cached fastest-tier benefitPerExecTo for a (kind,
// object) pair. Cached values were produced by the same pure computation
// on the same profiler state, so they are bit-identical to a fresh call.
func (p *plannerState) benefit(r *runner, k int, obj task.ObjectID) float64 {
	ix := k*p.nobj + int(obj)
	if !p.pairOK[ix] {
		p.pairB[ix] = r.benefitPerExecTo(k, obj, r.fastTier)
		p.pairOK[ix] = true
	}
	return p.pairB[ix]
}

// refreshTotals re-folds the totals of dirty objects. Each fold adds the
// object's future uses in (task, access-position) order — the reference
// sum's exact addition order — so the result is bit-identical to a full
// recompute while touching only Δ objects.
func (p *plannerState) refreshTotals(r *runner) {
	for _, obj := range p.dirty {
		p.objDirty[obj] = false
		var sum float64
		for _, u := range p.uses[obj] {
			if r.started[u.task] {
				continue
			}
			sum += p.benefit(r, int(u.kind), obj)
		}
		p.totals[obj] = sum
	}
	p.dirty = p.dirty[:0]
}

// benefitPerExecTo returns the modeled seconds saved per execution of
// kind k if obj lived on tier `to` instead of the slow default tier 0,
// using the sampled profile: the equation-(1) bandwidth-consumption
// estimate feeds the profiled benefit equation
// (model.BenefitProfiledBetween). With feedback enabled the result
// passes through feedback.Estimator.Apply — this is the single choke
// point every planner (incremental, reference, N-tier) funnels through,
// so corrections reach all of them identically and the planAudit
// bit-identity contract holds.
func (r *runner) benefitPerExecTo(k int, obj task.ObjectID, to mem.Tier) float64 {
	est, ok := r.profiler.EstimateFor(k, obj, r.g.Object(obj).Size)
	if !ok {
		return 0
	}
	b := r.params.BenefitProfiledBetween(est.Loads, est.Stores, est.BWCons, 0, to)
	if r.fb != nil {
		b = r.fb.Apply(k, obj, b)
	}
	return b
}

// meanTaskSec is the runtime's estimate of one task's duration, from
// profiled means; used to convert task-count distances into time. Kinds
// are visited in kind-index order, the graph's stable first-appearance
// order: float accumulation is order-sensitive, and both planners (and
// run-to-run determinism) depend on a fixed order.
func (r *runner) meanTaskSec() float64 {
	var sum float64
	var n int
	for ki, cnt := range r.kindTotal {
		if d, ok := r.profiler.MeanDuration(ki); ok {
			sum += d * float64(cnt)
			n += cnt
		}
	}
	if n == 0 {
		return 1e-6
	}
	return sum / float64(n)
}

// overlapSec estimates the execution time available to hide a migration
// that becomes dependence-safe after task `from` and is needed by task
// `to`: the submission-order distance between them, spread over the
// workers, at the mean task duration meanSec (meanTaskSec, read once per
// plan). from < 0 means "safe immediately".
func (r *runner) overlapSec(from, to task.TaskID, meanSec float64) float64 {
	gap := int(to) - int(from) - 1
	if from < 0 {
		gap = int(to)
	}
	if gap < 0 {
		gap = 0
	}
	return float64(gap) / float64(r.cfg.Workers) * meanSec
}

// estTaskSec predicts a task's duration under a target set: the profiled
// mean minus the modeled benefit of every fully targeted object it
// touches (the bitset equivalent of targetFraction == 1).
func (r *runner) estTaskSec(t *task.Task, target planSet) float64 {
	k := r.g.KindIndex(t.ID)
	dur, ok := r.profiler.MeanDuration(k)
	if !ok {
		dur = r.meanTaskSec()
	}
	p := r.pt
	for _, a := range t.Accesses {
		if target.containsRange(r.st.ChunkBase(a.Obj), r.st.Chunks(a.Obj)) {
			dur -= p.benefit(r, k, a.Obj)
		}
	}
	if dur < 0 {
		dur = 0
	}
	return dur
}

// usersAround moves obj's user-list cursors up to task t and returns how
// many of obj's users fall within (t, t+horizon] and the last user
// before t (-1 if none). Between cursor resets t must not decrease, so
// each cursor crosses each user at most once per plan.
func (p *plannerState) usersAround(obj task.ObjectID, t, horizon task.TaskID) (uses int, prev task.TaskID) {
	users := p.users[obj]
	ahead, beyond := p.ahead[obj], p.beyond[obj]
	for ahead < len(users) && users[ahead] <= t {
		ahead++
	}
	for beyond < len(users) && users[beyond] <= t+horizon {
		beyond++
	}
	p.ahead[obj], p.beyond[obj] = ahead, beyond
	// A user list holds each task once, so only users[ahead-1] can be t.
	i := ahead
	if i > 0 && users[i-1] == t {
		i--
	}
	if i == 0 {
		return beyond - ahead, -1
	}
	return beyond - ahead, users[i-1]
}

// globalItems refreshes the benefit totals and appends the global
// knapsack's items to dst: every chunk of every object with remaining
// benefit, weighed by its share of that benefit minus a one-time
// migration cost. The global search and the adaptive-sampling margin
// query both build their list here, so the margin query's solve is a
// memo hit for Tahoe's global plan rather than a fresh DP run.
func (r *runner) globalItems(dst []placement.Item) []placement.Item {
	p := r.pt
	p.refreshTotals(r)
	now := r.frontier() - 1
	meanSec := r.meanTaskSec()
	for _, o := range r.g.Objects {
		benefit := p.totals[o.ID]
		if benefit == 0 {
			continue
		}
		refs := r.st.Refs(o.ID)
		per := benefit / float64(len(refs))
		base := r.st.ChunkBase(o.ID)
		overlap := -1.0 // set at the object's first chunk off the fast tier
		for i, ref := range refs {
			size := p.chunkSize[base+i]
			cost := 0.0
			if r.st.Tier(ref) != r.fastTier {
				if overlap < 0 {
					// The promotion is enqueued at plan time; the first
					// future user bounds the hiding window.
					firstUse := task.TaskID(len(r.g.Tasks))
					if nu, ok := r.g.NextUser(o.ID, now); ok {
						firstUse = nu
					}
					overlap = r.overlapSec(now, firstUse, meanSec)
				}
				cost = r.params.MigrationCostBetween(size, overlap, 0, r.fastTier)
			}
			dst = append(dst, placement.Item{Ref: ref, Size: size, Weight: per - cost})
		}
	}
	return dst
}

// computeGlobalPlan runs the cross-phase (whole-graph) search: one
// knapsack over every object's chunks, weighing each chunk by the total
// remaining benefit minus a one-time migration cost, then predicts the
// remaining execution time under the winning set.
func (r *runner) computeGlobalPlan(future []*task.Task) planResult {
	p := r.pt
	items := r.globalItems(p.items[:0])
	p.items = items
	chosen := p.solver.Solve(items, r.cfg.HMS.Capacity(r.fastTier), placement.DefaultGranularity)
	target := p.globalBuf
	target.clearAll()
	for _, i := range chosen {
		target.set(r.st.ChunkIndex(items[i].Ref))
	}
	predicted := 0.0
	for _, t := range future {
		predicted += r.estTaskSec(t, target)
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
	return planResult{kind: "global", global: target, predicted: predicted,
		solverSec: float64(len(items)) * solverItemSec}
}

// mergeObjs merges two sorted, duplicate-free object lists into dst.
func mergeObjs(dst, a, b []task.ObjectID) []task.ObjectID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// computeLocalPlan runs the per-task (phase-local) search: walk the
// future tasks in submission order, maintaining a hypothetical DRAM
// content, and solve a knapsack per task over the chunks it touches
// *plus* the chunks hypothetically resident — so every decision weighs
// newcomers against incumbents with the same currency. A chunk's weight
// is its object's average per-use benefit times the object's uses within
// the lookahead horizon, minus migration and eviction costs for
// non-residents — the paper's task-by-task decision with known DRAM
// contents. The hypothetical residency is a bitset plus an int64 byte
// accumulator. The per-task knapsacks skip the solver's memo: their
// weights carry use counts and overlap windows, so few patterns repeat
// (DESIGN.md "Planner internals" on why no modeled charge moves).
func (r *runner) computeLocalPlan(future []*task.Task) planResult {
	p := r.pt
	p.refreshTotals(r)
	capacity := r.cfg.HMS.Capacity(r.fastTier)
	meanSec := r.meanTaskSec()

	resident := p.resident
	resident.clearAll()
	resObjs := p.resObjs[:0]
	var residentBytes int64
	for _, o := range r.g.Objects {
		base := r.st.ChunkBase(o.ID)
		in := false
		for i, ref := range r.st.Refs(o.ID) {
			if r.st.Tier(ref) == r.fastTier {
				resident.set(base + i)
				residentBytes += p.chunkSize[base+i]
				in = true
			}
		}
		if in {
			resObjs = append(resObjs, o.ID)
		}
	}

	// Any horizon past the last task counts the same uses; capping the
	// lookahead and the horizon there keeps 8*Lookahead and t.ID+horizon
	// from overflowing.
	n := task.TaskID(len(r.g.Tasks))
	horizon := min(max(8*min(task.TaskID(r.cfg.Lookahead), n), 64), n)
	clear(p.ahead)
	clear(p.beyond)

	if len(p.perTask) < len(r.g.Tasks) {
		p.perTask = make([]planSet, len(r.g.Tasks))
	}
	perTask := p.perTask
	for i := range perTask {
		perTask[i] = nil
	}
	p.taskBuf = p.taskBuf[:0]
	var prev planSet // last committed distinct target

	for i := range p.kindMark {
		p.kindMark[i] = false
	}
	predicted := 0.0
	items := 0
	kinds := 0
	for _, t := range future {
		if k := r.g.KindIndex(t.ID); !p.kindMark[k] {
			p.kindMark[k] = true
			kinds++
		}

		// Candidate objects, ascending: the task's own merged with the
		// incumbents (resObjs is kept sorted; the task's are few).
		acc := p.accObjs[:0]
		for _, a := range t.Accesses {
			if !p.objMark[a.Obj] {
				p.objMark[a.Obj] = true
				acc = append(acc, a.Obj)
			}
		}
		for _, obj := range acc {
			p.objMark[obj] = false
		}
		slices.Sort(acc)
		p.accObjs = acc
		candObjs := mergeObjs(p.candObjs[:0], acc, resObjs)
		p.candObjs = candObjs

		cand := p.items[:0]
		for _, obj := range candObjs {
			pu := 0.0
			if n := p.futureUses[obj]; n > 0 {
				pu = p.totals[obj] / float64(n)
			}
			if pu <= 0 {
				continue
			}
			// The last user before t is the earliest safe promotion point.
			uses, from := p.usersAround(obj, t.ID, horizon)
			overlap := r.overlapSec(from, t.ID, meanSec)
			refs := r.st.Refs(obj)
			each := pu * float64(uses) / float64(len(refs))
			base := r.st.ChunkBase(obj)
			for i, ref := range refs {
				size := p.chunkSize[base+i]
				w := each
				if !resident.has(base + i) {
					w -= r.params.MigrationCostBetween(size, overlap, 0, r.fastTier)
					if residentBytes+size > capacity {
						// Paper's extra_COST: demote just enough.
						w -= float64(size) / r.cfg.HMS.CopyBW
					}
				}
				cand = append(cand, placement.Item{Ref: ref, Size: size, Weight: w})
			}
		}
		p.items = cand
		items += len(cand)
		chosen := p.solver.AppendKnapsack(p.chosen[:0], cand, capacity, placement.DefaultGranularity)
		p.chosen = chosen

		// The knapsack owns the residency decision: incumbents it did not
		// re-choose are hypothetically demoted. chosen is ascending over
		// cand, and cand is (object, chunk)-ascending, so resObjs stays
		// sorted and the byte accumulator matches the reference's recount
		// exactly (integer sum over the same set).
		resident.clearAll()
		residentBytes = 0
		resObjs = resObjs[:0]
		last := task.ObjectID(-1)
		for _, i := range chosen {
			it := &cand[i]
			resident.set(r.st.ChunkIndex(it.Ref))
			residentBytes += it.Size
			if it.Ref.Obj != last {
				last = it.Ref.Obj
				resObjs = append(resObjs, last)
			}
		}

		// Commit the target view, aliasing runs of identical targets.
		if prev != nil && prev.equal(resident) {
			perTask[t.ID] = prev
		} else {
			off := len(p.taskBuf)
			p.taskBuf = append(p.taskBuf, resident...)
			prev = planSet(p.taskBuf[off : off+p.words])
			perTask[t.ID] = prev
		}
		predicted += r.estTaskSec(t, resident)
	}
	p.resObjs = resObjs
	predicted /= float64(r.cfg.Workers)
	return planResult{kind: "local", perTask: perTask, predicted: predicted,
		solverSec: float64(kinds)*20*solverItemSec + float64(items)*solverLookupSec}
}

// computeLevelPlan is the PhaseBased comparator: one knapsack per
// topological level over the objects its tasks touch, enforced at level
// boundaries. It shares the bitset representation, the benefit cache,
// the memoizing solver and, like the local search, reusable scratch.
func (r *runner) computeLevelPlan(future []*task.Task) planResult {
	p := r.pt
	levels := r.levels
	if p.byLevel == nil {
		maxLevel := 0
		for _, lv := range levels {
			maxLevel = max(maxLevel, lv)
		}
		p.byLevel = make([][]*task.Task, maxLevel+1)
		p.perLevel = make([]planSet, maxLevel+1)
		p.agg = make([]float64, p.nobj)
	}
	byLevel, perLevel := p.byLevel, p.perLevel
	for lv := range byLevel {
		byLevel[lv] = byLevel[lv][:0]
		perLevel[lv] = nil
	}
	for _, t := range future {
		byLevel[levels[t.ID]] = append(byLevel[levels[t.ID]], t)
	}
	items := 0
	predicted := 0.0
	// Hypothetical residency carried across levels: promoting an object
	// that is already resident from the previous level costs nothing, so
	// stable hot sets stay put instead of bouncing at every boundary.
	resident := p.resident
	resident.clearAll()
	for _, o := range r.g.Objects {
		base := r.st.ChunkBase(o.ID)
		for i, ref := range r.st.Refs(o.ID) {
			if r.st.Tier(ref) == r.fastTier {
				resident.set(base + i)
			}
		}
	}
	agg := p.agg
	p.levelBuf = p.levelBuf[:0]
	for lv, tasks := range byLevel {
		if len(tasks) == 0 {
			continue
		}
		// Aggregate benefit per object over the level's tasks, visited in
		// ascending object order (see plan_ref_test.go on determinism).
		objs := p.accObjs[:0]
		for _, t := range tasks {
			k := r.g.KindIndex(t.ID)
			for _, a := range t.Accesses {
				if !p.objMark[a.Obj] {
					p.objMark[a.Obj] = true
					objs = append(objs, a.Obj)
				}
				agg[a.Obj] += p.benefit(r, k, a.Obj)
			}
		}
		slices.Sort(objs)
		p.accObjs = objs
		cand := p.items[:0]
		for _, obj := range objs {
			benefit := agg[obj]
			if benefit <= 0 {
				continue
			}
			refs := r.st.Refs(obj)
			each := benefit / float64(len(refs))
			base := r.st.ChunkBase(obj)
			for i, ref := range refs {
				size := p.chunkSize[base+i]
				w := each
				if !resident.has(base + i) {
					w -= r.params.MigrationCostBetween(size, 0, 0, r.fastTier)
				}
				cand = append(cand, placement.Item{Ref: ref, Size: size, Weight: w})
			}
		}
		p.items = cand
		for _, obj := range objs { // reset scratch for the next level
			p.objMark[obj] = false
			agg[obj] = 0
		}
		items += len(cand)
		chosen := p.solver.Solve(cand, r.cfg.HMS.Capacity(r.fastTier), placement.DefaultGranularity)
		if len(chosen) == 0 {
			// No opinion: keep whatever is resident rather than flushing.
			for _, t := range tasks {
				predicted += r.estTaskSec(t, resident)
			}
			continue
		}
		off := len(p.levelBuf)
		p.levelBuf = slices.Grow(p.levelBuf, p.words)[:off+p.words]
		target := planSet(p.levelBuf[off:])
		target.clearAll()
		for _, i := range chosen {
			ix := r.st.ChunkIndex(cand[i].Ref)
			target.set(ix)
			// Enforcement only demotes to make room, so residency grows to
			// the union (capacity permitting); mirror that optimistically.
			resident.set(ix)
		}
		perLevel[lv] = target
		for _, t := range tasks {
			predicted += r.estTaskSec(t, resident)
		}
	}
	predicted /= float64(r.cfg.Workers)
	return planResult{kind: "phase", perLevel: perLevel, predicted: predicted,
		solverSec: float64(len(perLevel))*solverItemSec + float64(items)*solverLookupSec}
}

// Solver cost constants, simulated seconds whatever the host does: the
// modeled DP pays per candidate item, a repeated pattern a lookup.
const (
	solverItemSec   = 20e-6
	solverLookupSec = 0.5e-6
)
