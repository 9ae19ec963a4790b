package core

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/prof"
	"repro/internal/task"
)

// PlannerBench freezes a mid-run planner state so benchmarks and tests
// can drive the placement searches directly, outside the event loop: a
// runner whose profiler has seen every (kind, object) pair and whose
// first third of tasks is bookkeeping-started. It exposes the optimized
// planning path; the package's tests add the retained reference path
// (plan_ref_test.go) on the same state, so their ratio is the
// optimization's honest speedup.
type PlannerBench struct {
	r        *runner
	nextKind int
}

// NewPlannerBench builds the frozen state for a profiling policy
// (Tahoe or PhaseBased) configuration.
func NewPlannerBench(g *task.Graph, cfg Config) (*PlannerBench, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	r := new(runner)
	if err := r.setup(g, cfg); err != nil {
		return nil, err
	}
	if r.pt == nil {
		return nil, fmt.Errorf("core: policy %s does not plan", cfg.Policy)
	}
	pb := &PlannerBench{r: r}
	// Feed the profiler one observation per task, exactly as complete()
	// would, so every pair has an estimate and every kind a mean.
	for _, t := range g.Tasks {
		pb.record(t)
	}
	// Advance the frontier past the first third of the graph.
	for _, t := range g.Tasks[:len(g.Tasks)/3] {
		pb.startTask(t)
	}
	return pb, nil
}

// record mirrors the profiling half of runner.complete: one Exec with
// per-object time shares from the demand model, then the planner cache
// invalidation that every Record triggers.
func (pb *PlannerBench) record(t *task.Task) {
	r := pb.r
	d := model.TaskDemandTiered(t, r.machineHMS(), r.st.TierFraction)
	dur := d.TotalSec()
	obs := make([]prof.AccessObs, 0, len(t.Accesses))
	for _, a := range t.Accesses {
		share := 0.0
		if dur > 0 {
			share = d.ObjSecOf(a.Obj) / dur
		}
		obs = append(obs, prof.AccessObs{
			Obj: a.Obj, Loads: a.Loads, Stores: a.Stores,
			Size: r.g.Object(a.Obj).Size, TimeShare: share,
		})
	}
	ki := r.g.KindIndex(t.ID)
	r.profiler.Record(prof.Exec{Kind: ki, Duration: dur, Obs: obs})
	r.pt.invalidateKind(ki)
}

// startTask mirrors the planner-relevant bookkeeping of runner.start.
func (pb *PlannerBench) startTask(t *task.Task) {
	r := pb.r
	r.started[t.ID] = true
	r.kindRemaining[r.g.KindIndex(t.ID)]--
	r.pt.taskStarted(t)
}

// future rebuilds the unstarted-task list the way decidePlacement does;
// both paths share it so its (small) cost is charged to both.
func (pb *PlannerBench) future() []*task.Task {
	r := pb.r
	f := r.pt.future[:0]
	for _, t := range r.g.Tasks {
		if !r.started[t.ID] {
			f = append(f, t)
		}
	}
	r.pt.future = f
	return f
}

// perturb invalidates one kind's cached estimates, round-robin — the
// state a drift re-profile leaves behind, and the Δ a replan refreshes.
func (pb *PlannerBench) perturb() {
	p := pb.r.pt
	p.invalidateKind(pb.nextKind)
	pb.nextKind = (pb.nextKind + 1) % p.nk
}

// Global runs the optimized global search once.
func (pb *PlannerBench) Global() float64 {
	return pb.r.computeGlobalPlan(pb.future()).predicted
}

// Local runs the optimized local search once.
func (pb *PlannerBench) Local() float64 {
	return pb.r.computeLocalPlan(pb.future()).predicted
}

// Level runs the level search once (on a bench built for PhaseBased).
func (pb *PlannerBench) Level() float64 {
	return pb.r.computeLevelPlan(pb.future()).predicted
}

// Replan models one workload-variation replan: a kind's estimates went
// stale, and the runtime recomputes both searches and takes the winner.
func (pb *PlannerBench) Replan() float64 {
	pb.perturb()
	f := pb.future()
	g := pb.r.computeGlobalPlan(f)
	l := pb.r.computeLocalPlan(f)
	if l.predicted < g.predicted {
		return l.predicted
	}
	return g.predicted
}

// SolverStats exposes the knapsack memo's hit/miss counters.
func (pb *PlannerBench) SolverStats() (hits, misses int) {
	s := &pb.r.pt.solver
	return s.Hits, s.Misses
}
