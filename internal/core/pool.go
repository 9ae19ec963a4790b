package core

import (
	"sync"
	"unsafe"
)

// runPool recycles whole runners, each with its runSet: the engine, the
// heap ledger, the migration engine, the deques, the planner, profiler
// and feedback estimator, the flow carriers and every table. Run takes
// one and setup re-slices it for the new graph, so a steady stream of
// runs under any policy allocates nothing.
var runPool sync.Pool

// runBudget caps the bytes a pooled runner may hold. A run on a huge
// graph grows its set past it, and recycle then drops the runner instead
// of pinning its buffers for the life of a long-running process.
const runBudget = 8 << 20

// takeRunner returns a pooled runner, or a new one.
func takeRunner() *runner {
	if r, ok := runPool.Get().(*runner); ok {
		return r
	}
	return new(runner)
}

// recycle clears r's references into its finished run (the graph and its
// tasks, the Config with its trace and callbacks, blocked tasks, the
// engine's leftover timers, the planner's task lists) and returns r to
// the pool unless its buffers exceed runBudget; it reports whether r was
// pooled. Run calls it only after a run that returned without error, so
// every flow has completed and every carrier is back in flowPool.
func (r *runner) recycle() bool {
	*r = runner{runSet: r.runSet}
	r.e.Reset()
	r.mig.Observer, r.mig.Faults = nil, nil
	clear(r.blocked[:cap(r.blocked)])
	p := &r.ptVal
	clear(p.users)
	clear(p.future[:cap(p.future)])
	for _, lv := range p.byLevel[:cap(p.byLevel)] {
		clear(lv[:cap(lv)])
	}
	if r.footprint() > runBudget {
		return false
	}
	runPool.Put(r)
	return true
}

// footprint returns the bytes r's runSet holds.
func (r *runner) footprint() int {
	n := r.e.Footprint() + r.st.Footprint() + r.mig.Footprint() + r.ws.Footprint() +
		r.fifo.Footprint() + r.lifo.Footprint() + r.prio.Footprint() + bytesOf(r.rank) +
		bytesOf(r.rankDemand.ObjSecs) +
		r.profVal.Footprint() + r.fbVal.Footprint() + r.ptVal.footprint() +
		bytesOf(r.freeWorkers) + bytesOf(r.remaining) + bytesOf(r.started) + bytesOf(r.finished) +
		bytesOf(r.userCursor) + bytesOf(r.inUse) + bytesOf(r.kindTotal) + bytesOf(r.kindRemaining) +
		bytesOf(r.kindSinceAudit) + bytesOf(r.auditDrift) + bytesOf(r.kindNames) + bytesOf(r.promoBlock) +
		bytesOf(r.pendingTier) + bytesOf(r.blocked) + bytesOf(r.obsScratch) + bytesOf(r.victims) +
		bytesOf(r.tiers) + bytesOf(r.chunks) + bytesOf(r.touched) +
		bytesOf(r.flowPool) + bytesOf(r.planFlows) +
		len(r.flowPool)*int(unsafe.Sizeof(taskFlow{})) + len(r.planFlows)*int(unsafe.Sizeof(planFlow{}))
	for _, tf := range r.flowPool {
		n += bytesOf(tf.d.ObjSecs)
	}
	return n
}

// footprint returns the bytes p's buffers hold.
func (p *plannerState) footprint() int {
	n := p.solver.Footprint() +
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
		bytesOf(p.tierTo) + bytesOf(p.refCounts)
	for _, lv := range p.byLevel[:cap(p.byLevel)] {
		n += bytesOf(lv)
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
