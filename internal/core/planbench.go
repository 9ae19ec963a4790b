package core

import (
	"fmt"

	"repro/internal/model"
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
	// Feed the profiler one observation per task, timed by the demand
	// model, as complete() records it, so every pair has an estimate and
	// every kind a mean.
	var d model.Demand
	for _, t := range g.Tasks {
		d.FillTiered(t, r.machineHMS(), r.st.TierFraction)
		r.recordProfile(t, g.KindIndex(t.ID), d.TotalSec(), &d)
	}
	// Advance the frontier past the first third of the graph.
	for _, t := range g.Tasks[:len(g.Tasks)/3] {
		r.markStarted(t)
	}
	return &PlannerBench{r: r}, nil
}

// perturb invalidates one kind's cached estimates, round-robin — the
// state a drift re-profile leaves behind, and the Δ a replan refreshes.
func (pb *PlannerBench) perturb() {
	p := pb.r.pt
	p.invalidateKind(pb.r.g, pb.nextKind)
	pb.nextKind = (pb.nextKind + 1) % p.nk
}

// Global runs the optimized global search once.
func (pb *PlannerBench) Global() float64 {
	return pb.r.computeGlobalPlan(pb.r.futureTasks()).predicted
}

// Local runs the optimized local search once.
func (pb *PlannerBench) Local() float64 {
	return pb.r.computeLocalPlan(pb.r.futureTasks()).predicted
}

// Level runs the level search once (on a bench built for PhaseBased).
func (pb *PlannerBench) Level() float64 {
	return pb.r.computeLevelPlan(pb.r.futureTasks()).predicted
}

// Replan models one workload-variation replan: a kind's estimates went
// stale, and the runtime recomputes both searches and takes the winner.
func (pb *PlannerBench) Replan() float64 {
	pb.perturb()
	f := pb.r.futureTasks()
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
