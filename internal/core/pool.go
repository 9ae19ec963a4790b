package core

import (
	"sync"
	"unsafe"

	"repro/internal/feedback"
	"repro/internal/prof"
	"repro/internal/sim"
)

// managed is the working set of a run under a profiling policy (Tahoe,
// PhaseBased): the planner's tables and scratch with its knapsack
// solver, the profiler, the feedback estimator, and the task- and
// plan-flow carriers. Runs take one from managedPool and set-up re-slices
// every buffer for the new graph, so a steady stream of managed runs
// allocates no planning state. Policies that never profile never take
// one.
type managed struct {
	pt        plannerState
	prof      prof.Profiler
	fb        feedback.Estimator
	flows     []*taskFlow
	planFlows []*planFlow
}

var managedPool sync.Pool

// managedBudget caps the bytes a pooled working set may hold. A run on a
// huge graph grows its set past it, and recycle then drops the set
// instead of pinning its buffers for the life of a long-running process.
const managedBudget = 8 << 20

// takeManaged returns a pooled working set, or a new one.
func takeManaged() *managed {
	if m, ok := managedPool.Get().(*managed); ok {
		return m
	}
	return new(managed)
}

// recycle clears m's references into its last run (graph, tasks,
// runner, engine) and returns m to the pool unless its buffers exceed
// managedBudget; it reports whether m was pooled.
func (m *managed) recycle() bool {
	p := &m.pt
	clear(p.users)
	clear(p.future[:cap(p.future)])
	for _, lv := range p.byLevel[:cap(p.byLevel)] {
		clear(lv[:cap(lv)])
	}
	for _, tf := range m.flows {
		tf.r, tf.stages = nil, [2]sim.Stage{}
	}
	for _, pf := range m.planFlows {
		pf.r = nil
	}
	if m.footprint() > managedBudget {
		return false
	}
	managedPool.Put(m)
	return true
}

// footprint returns the bytes m's buffers hold.
func (m *managed) footprint() int {
	p := &m.pt
	n := m.prof.Footprint() + m.fb.Footprint() + p.solver.Footprint() +
		bytesOf(p.chunkSize) + bytesOf(p.uses) + bytesOf(p.useBuf) + bytesOf(p.kindObjs) +
		bytesOf(p.kindBuf) + bytesOf(p.kindOff) + bytesOf(p.users) + bytesOf(p.futureUses) +
		bytesOf(p.pairB) + bytesOf(p.pairOK) + bytesOf(p.totals) + bytesOf(p.objDirty) +
		bytesOf(p.dirty) + bytesOf(p.future) + bytesOf(p.items) + bytesOf(p.chosen) +
		bytesOf(p.accObjs) + bytesOf(p.candObjs) + bytesOf(p.resObjs) + bytesOf(p.objMark) +
		bytesOf(p.kindMark) + bytesOf(p.resident) + bytesOf(p.keep) + bytesOf(p.seen) +
		bytesOf(p.wants) + bytesOf(p.ahead) + bytesOf(p.beyond) + bytesOf(p.byLevel) +
		bytesOf(p.agg) + bytesOf(p.levelBuf) + bytesOf(p.levelEnforced) + bytesOf(p.globalBuf) +
		bytesOf(p.perTask) + bytesOf(p.taskBuf) + bytesOf(p.perLevel) +
		bytesOf(p.adaptItems) + bytesOf(p.adaptMargins) + bytesOf(p.adaptObjRel) +
		bytesOf(p.kindBoosted) + bytesOf(p.tierPair) + bytesOf(p.tierPairOK) +
		bytesOf(p.tierTotals) + bytesOf(p.tierLive) + bytesOf(p.tierItems) + bytesOf(p.tierW) +
		bytesOf(p.tierTo) + bytesOf(p.refCounts) +
		bytesOf(m.flows) + bytesOf(m.planFlows) +
		len(m.flows)*int(unsafe.Sizeof(taskFlow{})) + len(m.planFlows)*int(unsafe.Sizeof(planFlow{}))
	for _, lv := range p.byLevel[:cap(p.byLevel)] {
		n += bytesOf(lv)
	}
	for _, tf := range m.flows {
		n += bytesOf(tf.d.ObjSecs)
	}
	return n
}

// reuse returns s resized to n zeroed elements, in s's own array when
// that is large enough.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bytesOf returns the bytes s's array holds.
func bytesOf[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}
