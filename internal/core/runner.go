package core

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/migrate"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// Result summarizes one simulated run.
type Result struct {
	Workload string
	Policy   string
	// Time is the simulated makespan in seconds.
	Time float64
	// Tasks is the number of tasks executed.
	Tasks int
	// Migration aggregates helper-thread activity.
	Migration migrate.Stats
	// RuntimeOverheadSec is the runtime's own cost (profiling inflation,
	// solver time, queue synchronization) included in Time.
	RuntimeOverheadSec float64
	// OverheadProfilingSec, OverheadSolverSec and OverheadSyncSec break
	// RuntimeOverheadSec down by source.
	OverheadProfilingSec float64
	OverheadSolverSec    float64
	OverheadSyncSec      float64
	// PlanKind records which search won: "", "global", "local", "phase",
	// or "static".
	PlanKind string
	// Replans counts workload-variation re-planning events.
	Replans int
	// DRAMHighWaterBytes is the peak application DRAM residency.
	DRAMHighWaterBytes int64
	// EnergyJ is total memory-system energy: dynamic access energy plus
	// installed-capacity static power over the makespan. DRAM-only
	// machines install DRAM for the whole footprint; HMS machines install
	// the small DRAM plus NVM for the footprint — the power trade NVM
	// main memory exists for.
	EnergyJ float64
	// EnergyDynamicJ and EnergyStaticJ break EnergyJ down.
	EnergyDynamicJ float64
	EnergyStaticJ  float64
	// MemBusyFrac is the fraction of the makespan with memory-system
	// service in progress; CopyBusyFrac likewise for the migration
	// channel.
	MemBusyFrac  float64
	CopyBusyFrac float64
	// FaultEvents counts fault-schedule activations that fired during the
	// run; Quarantines counts tier-quarantine episodes the runtime opened
	// in response, and Readmits the episodes that closed before the run
	// ended (a quarantine still open at quiescence never readmits, so
	// Readmits <= Quarantines). All are 0 without fault injection.
	FaultEvents int
	Quarantines int
	Readmits    int
	// ProfileSamples is the profiler's cumulative expected sample count —
	// the total sampling cost the run's profile accuracy was bought with.
	// 0 for policies that do not profile.
	ProfileSamples float64
	// FeedbackReplans counts replans the observed-vs-predicted feedback
	// estimator triggered (a subset of Replans); FeedbackCorrections is
	// the number of (kind, object) pairs whose correction factor was
	// active when the run ended. Both are 0 with feedback disabled.
	FeedbackReplans     int
	FeedbackCorrections int
}

// EDP returns the energy-delay product in joule-seconds.
func (r Result) EDP() float64 { return r.EnergyJ * r.Time }

// OverheadFraction is RuntimeOverheadSec relative to Time.
func (r Result) OverheadFraction() float64 {
	if r.Time <= 0 {
		return 0
	}
	return r.RuntimeOverheadSec / r.Time
}

// testHook, when set by tests, inspects the runner's final state.
var testHook func(*runner)

// blockedTask is a ready task waiting for in-flight migrations.
type blockedTask struct {
	t      *task.Task
	worker int // worker that readied it (for deque affinity)
}

// runner holds the state of one simulated run.
type runner struct {
	cfg Config
	g   *task.Graph

	e      *sim.Engine
	memRes *sim.Resource
	st     *heap.State
	mig    *migrate.Engine

	profiler *prof.Profiler
	params   model.Params

	queue       sched.Queue
	freeWorkers []int
	remaining   []int // unmet dependence count per task
	started     []bool
	finished    []bool
	levels      []int

	// userCursor is, per object, a cursor into Users(obj): every user
	// before it has finished. safeFor, its only reader, advances it
	// lazily. Objects have dense IDs, so per-object state is flat slices,
	// not maps.
	userCursor []int
	// inUse counts running tasks touching each object.
	inUse []int

	// Per-kind counters, indexed by the graph's dense kind index
	// (g.Kinds order); the hot paths reach them via g.KindIndex.
	kindTotal      []int
	kindRemaining  []int
	kindSinceAudit []int
	auditDrift     []int

	// pt is the incremental planning state (profiling policies only);
	// see plannerState in plan.go.
	pt *plannerState

	plan       planResult
	planned    bool
	needReplan bool
	replans    int
	dynamicJ   float64
	// promoBlock blacklists chunks whose promotion just failed (no room);
	// retries wait until some task completes, preventing a same-instant
	// retry livelock. Cleared on every completion. Indexed by the dense
	// global chunk index; promoBlocked counts set entries so the common
	// nothing-blocked case clears nothing.
	promoBlock    []bool
	promoBlocked  int
	levelEnforced []bool
	// pendingTier[t] is the projected byte delta of tier t from queued and
	// in-flight movements: promotions targeting t add their size, moves
	// leaving t subtract it. TierAvail(t)-pendingTier[t] is the headroom a
	// new movement may count on. (The two-tier machine only ever consults
	// the fastest tier's entry — the old pendingDRAM.)
	pendingTier []int64
	// fastTier caches the fastest tier's id (InDRAM on two-tier machines).
	fastTier     mem.Tier
	hwFrac       float64
	overheadSec  float64
	overheadProf float64
	overheadPlan float64
	overheadSync float64
	highWater    int64

	blocked     []blockedTask
	completed   int
	lastPlanAt  int
	frontierIdx int
	dispatchQ   bool // dispatch scheduled for this instant
	// dispatchFn is the dispatch timer's callback, bound once per run so
	// scheduling a dispatch allocates no closure.
	dispatchFn func(now float64)

	// obsScratch is the reusable observation buffer complete() hands the
	// profiler (Record does not retain it).
	obsScratch []prof.AccessObs

	// flowPool recycles task-execution flows: once a flow's OnDone has
	// fired the engine holds no reference to it, so start() can reuse the
	// Flow, its two-stage array, its Demand's ObjSecs array and the
	// pre-bound completion context. The pool's high-water mark is the
	// worker count, not the task count.
	flowPool []*taskFlow

	// exposureSince, when >= 0, marks the start of an interval in which a
	// worker sits idle with no runnable task while tasks wait on
	// migrations: the honest definition of exposed (non-overlapped)
	// migration cost.
	exposureSince float64

	// Adaptive-sampling scratch (nil unless cfg.Prof.Adaptive and the
	// policy profiles): reusable item/margin buffers for the flip-margin
	// query, per-object minimum relative margin, and a once-per-run guard
	// so each kind's sampling rate is raised at most once.
	adaptItems   []placement.Item
	adaptMargins []float64
	adaptObjRel  []float64
	kindBoosted  []bool
	adaptRounds  int

	// Feedback state (nil/zero unless cfg.Feedback.Enabled and the policy
	// profiles; every consumer is gated so feedback-off runs stay
	// bit-identical). fb holds the per-(kind, object) correction factors
	// the planner applies, fbReplans the feedback-triggered replan count
	// against feedback.ReplanBudget.
	fb        *feedback.Estimator
	fbReplans int

	// Fault-injection state (all nil/zero without cfg.Faults, and every
	// consumer is gated so the fault-free paths stay bit-identical).
	flt *fault.Injector
	// quarantined[t] marks a tier the runtime has stopped targeting after
	// a fault burst; tierFaults[t] counts injected failures since the
	// tier's last readmission.
	quarantined []bool
	tierFaults  []int
	quarantines int
	readmits    int
	faultEvents int
}

// quarantineThreshold is how many injected copy failures (since the last
// readmission) a tier absorbs before the runtime quarantines it, and
// minQuarantineSec how long a quarantine lasts when the fault schedule
// names no later recovery point for the tier.
const (
	quarantineThreshold = 3
	minQuarantineSec    = 0.05
)

// Run executes the task graph under the configuration and returns the
// simulated result. The graph is not mutated and may be reused.
func Run(g *task.Graph, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	r := &runner{cfg: cfg, g: g}
	if err := r.setup(); err != nil {
		return Result{}, err
	}
	r.seed()
	end := r.e.Run()
	if r.completed != len(g.Tasks) {
		return Result{}, fmt.Errorf("core: completed %d of %d tasks", r.completed, len(g.Tasks))
	}
	// Quiescence invariants: the helper thread must have settled every
	// request — nothing queued, no chunk still reporting Busy. A violation
	// would mean a task could have been dispatched over a moving chunk.
	if q, p := r.mig.QueueLen(), r.mig.PendingCount(); q != 0 || p != 0 {
		return Result{}, fmt.Errorf("core: %d queued and %d pending migrations after quiescence", q, p)
	}
	// Heap invariants: every tier's ledger matches the chunk map and
	// fits the tier's capacity.
	if err := r.st.CheckInvariants(); err != nil {
		return Result{}, fmt.Errorf("core: after run: %w", err)
	}
	if testHook != nil {
		testHook(r)
	}
	res := Result{
		Workload:             g.Name,
		Policy:               cfg.Policy.String(),
		Time:                 end,
		Tasks:                r.completed,
		Migration:            r.mig.Stats(),
		RuntimeOverheadSec:   r.overheadSec,
		OverheadProfilingSec: r.overheadProf,
		OverheadSolverSec:    r.overheadPlan,
		OverheadSyncSec:      r.overheadSync,
		PlanKind:             r.plan.kind,
		Replans:              r.replans,
		DRAMHighWaterBytes:   r.highWater,
		FaultEvents:          r.faultEvents,
		Quarantines:          r.quarantines,
		Readmits:             r.readmits,
		FeedbackReplans:      r.fbReplans,
		FeedbackCorrections:  r.feedbackStats().Corrections,
	}
	if r.profiler != nil {
		res.ProfileSamples = r.profiler.SamplesTaken()
	}
	res.EnergyDynamicJ, res.EnergyStaticJ = r.energy(end)
	res.EnergyJ = res.EnergyDynamicJ + res.EnergyStaticJ
	if end > 0 {
		res.MemBusyFrac = r.memRes.BusySec() / end
		res.CopyBusyFrac = r.mig.CopyBusySec() / end
	}
	return res, nil
}

// energy totals the run's memory-system energy: accumulated dynamic
// access energy (tasks plus migration copies, which read the source and
// write the destination) and static power of the installed devices over
// the makespan. A DRAM-only machine installs DRAM for the whole
// footprint and no NVM; an HMS installs its small DRAM plus NVM sized to
// the footprint.
func (r *runner) energy(makespan float64) (dynamicJ, staticJ float64) {
	var footprint int64
	for _, o := range r.g.Objects {
		footprint += o.Size
	}
	// Both machines install the same main-memory capacity (a node is
	// provisioned for its biggest job, not this one): at least 1 GiB.
	installed := footprint
	if installed < 1<<30 {
		installed = 1 << 30
	}
	dram, nvm := r.cfg.HMS.Device(r.fastTier), r.cfg.HMS.Device(0)
	dynamicJ = r.dynamicJ
	// Migration copies: a promotion reads NVM and writes DRAM, a demotion
	// the reverse; charge the average of the two directions.
	moved := float64(r.mig.Stats().BytesMoved)
	dynamicJ += moved * (nvm.ReadPJPerByte + dram.WritePJPerByte +
		dram.ReadPJPerByte + nvm.WritePJPerByte) / 2 * 1e-12

	gb := func(b int64) float64 { return float64(b) / float64(1<<30) }
	if r.cfg.Policy == DRAMOnly {
		staticJ = gb(installed) * dram.StaticMWPerGB * 1e-3 * makespan
	} else {
		// Installed static power: every tier above the bottom at its
		// configured capacity (fastest first), the bottom tier sized to the
		// footprint. On the two-tier machine this is exactly
		// Capacity(fast)·dram + installed·nvm.
		var acc float64
		h := r.cfg.HMS
		for t := h.Fastest(); t >= 1; t-- {
			acc += gb(h.Capacity(t)) * h.Device(t).StaticMWPerGB
		}
		acc += gb(installed) * h.Device(0).StaticMWPerGB
		staticJ = acc * 1e-3 * makespan
	}
	return dynamicJ, staticJ
}

// setup builds the simulated machine, the placement state with the
// chunking plan, the profiler and models, and applies the policy's
// initial placement.
func (r *runner) setup() error {
	r.e = sim.NewEngine()
	// The memory system is one unit-rate service pool shared by both
	// tiers (they hang off the same controllers): a task's stage demands
	// its zero-contention service seconds — NVM bytes costing more per
	// byte — and concurrent flows processor-share the pool.
	r.memRes = r.e.AddResource("mem", 1)

	hms := r.cfg.HMS
	if r.cfg.Policy == DRAMOnly {
		// Upper bound: unbounded DRAM, everything resident from the start.
		var total int64
		for _, o := range r.g.Objects {
			total += o.Size
		}
		// The caller's machine shares its tier slice: edit a copy.
		hms.Tiers = append([]mem.TierSpec(nil), hms.Tiers...)
		hms.Tiers[hms.Fastest()].Capacity = total + 1
	}
	r.fastTier = hms.Fastest()
	r.pendingTier = make([]int64, hms.NumTiers())

	st, err := heap.NewState(hms, r.g.Objects, r.chunkPlan())
	if err != nil {
		return err
	}
	r.st = st
	r.mig = migrate.New(r.e, st, hms)
	if r.cfg.Trace != nil {
		r.mig.Observer = traceObserver{r.cfg.Trace}
		// Every task contributes a start/end pair and at least one
		// dispatch record; pre-sizing here keeps the hot Add calls
		// append-without-grow. Migrations and faults still extend the
		// buffer, but only past this floor.
		r.cfg.Trace.Grow(2*len(r.g.Tasks)+16, len(r.g.Tasks))
	}
	// An empty schedule arms nothing: even inert resilience timers split
	// the fluid integration's steps differently at the last ulp, so the
	// empty-equals-nil contract is kept by construction.
	if !r.cfg.Faults.Empty() {
		r.flt = fault.NewInjector(r.e, r.cfg.Faults)
		r.flt.OnEvent = r.onFaultEvent
		r.flt.OnCopyFault = r.onCopyFault
		r.flt.Install()
		r.mig.Faults = r.flt
		r.quarantined = make([]bool, hms.NumTiers())
		r.tierFaults = make([]int, hms.NumTiers())
	}
	r.params = model.Params{
		HMS:           r.cfg.HMS,
		CFBw:          r.cfg.CFBw,
		CFLat:         r.cfg.CFLat,
		DistinguishRW: r.cfg.Tech.DistinguishRW,
	}
	r.levels = r.g.Levels()

	n := len(r.g.Tasks)
	r.remaining = make([]int, n)
	r.started = make([]bool, n)
	r.finished = make([]bool, n)
	for _, t := range r.g.Tasks {
		r.remaining[t.ID] = len(t.Deps())
	}
	nobj := len(r.g.Objects)
	r.userCursor = make([]int, nobj)
	r.inUse = make([]int, nobj)
	r.exposureSince = -1

	kinds := r.g.Kinds()
	nk := len(kinds)
	r.kindTotal = make([]int, nk)
	r.kindRemaining = make([]int, nk)
	for _, t := range r.g.Tasks {
		ki := r.g.KindIndex(t.ID)
		r.kindTotal[ki]++
		r.kindRemaining[ki]++
	}
	r.kindSinceAudit = make([]int, nk)
	r.auditDrift = make([]int, nk)
	r.promoBlock = make([]bool, r.st.TotalChunks())
	if r.profilesKinds() {
		r.profiler = prof.New(r.cfg.Prof, kinds, nobj)
		r.pt = newPlannerState(r)
		if r.cfg.Prof.Adaptive {
			r.kindBoosted = make([]bool, nk)
			r.adaptObjRel = make([]float64, nobj)
		}
		if r.cfg.Feedback.Enabled {
			r.fb = feedback.New(nk, nobj)
		}
	}

	if r.cfg.NewQueue != nil {
		// Scheduler override (used by the replayer to pin a recorded
		// dispatch order). The started probe reads r.started, which is
		// already allocated above and mutated only by start().
		r.queue = r.cfg.NewQueue(r.cfg.Workers, func(id task.TaskID) bool {
			return int(id) < len(r.started) && r.started[id]
		})
	} else {
		switch r.cfg.Scheduler {
		case FIFOQueue:
			r.queue = sched.NewFIFO()
		case LIFOQueue:
			r.queue = sched.NewLIFO()
		case RankSched:
			rank := sched.UpwardRank(r.g, func(t *task.Task) float64 {
				d := model.TaskDemand(t, r.cfg.HMS, func(task.ObjectID) float64 { return 0 })
				return d.TotalSec()
			})
			r.queue = sched.NewPriority(func(t *task.Task) float64 { return rank[t.ID] })
		default:
			r.queue = sched.NewWorkSteal(r.cfg.Workers)
		}
	}
	r.freeWorkers = make([]int, 0, r.cfg.Workers)
	for w := r.cfg.Workers - 1; w >= 0; w-- {
		r.freeWorkers = append(r.freeWorkers, w)
	}
	r.dispatchFn = func(now float64) {
		r.dispatchQ = false
		r.dispatch(now)
	}

	return r.applyInitialPlacement()
}

// seed readies the root tasks and schedules the first dispatch.
func (r *runner) seed() {
	for _, t := range r.g.Tasks {
		if r.remaining[t.ID] == 0 {
			r.queue.Push(t, -1)
		}
	}
	r.scheduleDispatch()
}

// frontier returns the smallest task ID not yet started; submission-order
// scans for proactive migration begin here. started[] bits only ever turn
// on, so the cursor advances monotonically and the scan is amortized O(1).
func (r *runner) frontier() task.TaskID {
	for r.frontierIdx < len(r.started) && r.started[r.frontierIdx] {
		r.frontierIdx++
	}
	return task.TaskID(r.frontierIdx)
}

// tierFrac is the per-tier placement view the timing model sees.
func (r *runner) tierFrac(obj task.ObjectID, t mem.Tier) float64 {
	switch r.cfg.Policy {
	case DRAMOnly:
		if t == r.fastTier {
			return 1
		}
		return 0
	case HWCache:
		// Memory Mode caches the bottom tier in the top one; middle tiers
		// are unused.
		if t == r.fastTier {
			return r.hwFrac
		}
		if t == 0 {
			return 1 - r.hwFrac
		}
		return 0
	default:
		return r.st.TierFraction(obj, t)
	}
}

// scheduleDispatch coalesces dispatch work to one callback per instant.
func (r *runner) scheduleDispatch() {
	if r.dispatchQ {
		return
	}
	r.dispatchQ = true
	r.e.After(0, r.dispatchFn)
}

// dispatch hands ready tasks to free workers, blocking tasks whose data
// is mid-migration and (for reactive policies) requesting migrations.
func (r *runner) dispatch(now float64) {
	// Close any open exposure interval before the state changes.
	if r.exposureSince >= 0 {
		r.mig.AddExposed(now - r.exposureSince)
		r.exposureSince = -1
	}

	// First, release tasks whose migrations completed.
	if len(r.blocked) > 0 {
		kept := r.blocked[:0]
		for _, b := range r.blocked {
			if r.migBusy(b.t) {
				kept = append(kept, b)
				continue
			}
			r.queue.Push(b.t, b.worker)
		}
		r.blocked = kept
	}

	for len(r.freeWorkers) > 0 {
		w := r.freeWorkers[len(r.freeWorkers)-1]
		t, ok := r.queue.Pop(w)
		if !ok {
			break
		}
		// Record the pop, not the start: a popped task may block on an
		// in-flight migration (with CancelQueued side effects at this very
		// instant) and be dispatched again later, so only the pop sequence
		// is the scheduler's complete, replayable decision record.
		if r.cfg.Trace != nil {
			r.cfg.Trace.AddDispatch(trace.Dispatch{Time: now, Task: t.ID, Worker: w})
		}
		// Reactive migration: if the plan wants this task's data moved
		// and it has not happened yet, request it now and wait.
		if r.planned && !r.cfg.Tech.Proactive && r.cfg.Policy == Tahoe {
			r.requestFor(t)
		}
		if r.cfg.Policy == PhaseBased && r.planned {
			r.enforceLevel(r.levels[t.ID])
		}
		if r.migBusy(t) {
			r.blocked = append(r.blocked, blockedTask{t: t, worker: w})
			continue
		}
		r.freeWorkers = r.freeWorkers[:len(r.freeWorkers)-1]
		r.start(now, w, t)
	}

	// A worker idling while ready tasks wait on the helper thread is
	// migration cost the runtime failed to hide; start the clock.
	if len(r.freeWorkers) > 0 && len(r.blocked) > 0 && r.queue.Len() == 0 {
		r.exposureSince = now
	}
}

// Audit cadence and count-deviation threshold for the drift detector.
const (
	auditEvery        = 16
	auditDevThreshold = 1.0 // Record's drift score is already normalized
)

// reopenKind marks a kind's profile stale (workload variation detected):
// its estimates and pair coverage reset and the placement is recomputed
// once the kind is re-profiled.
func (r *runner) reopenKind(ki int) {
	r.profiler.MarkStale(ki)
	r.needReplan = true
	r.pt.invalidateKind(ki)
}

// allPairsObserved reports whether every (kind, object) pair of task t,
// of kind ki, has a profiled estimate.
func (r *runner) allPairsObserved(t *task.Task, ki int) bool {
	for _, a := range t.Accesses {
		if !r.profiler.Observed(ki, a.Obj) {
			return false
		}
	}
	return true
}

// migBusy reports whether any object of t has a queued or in-flight
// move. Movements that are merely queued — speculative promotions for
// other tasks — are cancelled rather than waited on: a ready task always
// outranks a movement whose copy has not started. Only an actual
// in-flight copy (or this task's own reactive request) blocks. With no
// chunk pending anywhere — always, under the policies that never
// migrate — there is nothing to scan.
func (r *runner) migBusy(t *task.Task) bool {
	if r.mig.PendingCount() == 0 {
		return false
	}
	blocked := false
	for _, a := range t.Accesses {
		for i := 0; i < r.st.Chunks(a.Obj); i++ {
			ref := heap.ChunkRef{Obj: a.Obj, Index: i}
			if !r.mig.Busy(ref) {
				continue
			}
			if r.mig.InFlight(ref) {
				blocked = true
				continue
			}
			if r.mig.CancelQueued(ref, t.ID) == 0 || r.mig.Busy(ref) {
				// Own reactive request (or an uncancellable remainder).
				blocked = true
			}
		}
	}
	return blocked
}

// start launches task t on worker w as a simulation flow.
func (r *runner) start(now float64, w int, t *task.Task) {
	r.started[t.ID] = true
	ki := r.g.KindIndex(t.ID)
	r.kindRemaining[ki]--
	for _, a := range t.Accesses {
		r.inUse[a.Obj]++
	}
	if r.pt != nil {
		r.pt.taskStarted(t)
	}
	if hw := r.st.DRAMUsed(); hw > r.highWater {
		r.highWater = hw
	}

	var tf *taskFlow
	if n := len(r.flowPool); n > 0 {
		tf = r.flowPool[n-1]
		r.flowPool[n-1] = nil
		r.flowPool = r.flowPool[:n-1]
		tf.flow.Reuse()
	} else {
		tf = &taskFlow{r: r}
		tf.flow.Stages = tf.stages[:]
		tf.flow.OnDone = tf.onDone
	}
	d := &tf.d
	if r.cfg.Policy == HWCache {
		d.FillHWCache(t, r.machineHMS(), r.hwFrac)
	} else {
		d.FillTiered(t, r.machineHMS(), r.tierFrac)
	}
	for tier := 0; tier < r.st.NumTiers(); tier++ {
		dev := r.cfg.HMS.Device(mem.Tier(tier))
		r.dynamicJ += (d.BytesRead[tier]*dev.ReadPJPerByte +
			d.BytesWritten[tier]*dev.WritePJPerByte) * 1e-12
	}
	fixed := d.FixedSec
	// Profile while the kind's window is open; additionally whenever the
	// task touches a (kind, object) pair with no estimate yet — kinds
	// that touch different objects in different executions (tiled
	// kernels, shifting hot sets) would otherwise leave those pairs
	// unestimated — and periodically as an audit, so a kind whose
	// traffic shifts within known pairs is caught by its own counters.
	// Coverage and audit profiling sample narrowly and cost a fraction
	// of a full pass.
	windowOpen := r.profilesKinds() && !r.profiler.Profiled(ki)
	audit := false
	if r.profilesKinds() && !windowOpen {
		r.kindSinceAudit[ki]++
		if r.kindSinceAudit[ki] >= auditEvery {
			r.kindSinceAudit[ki] = 0
			audit = true
		}
	}
	coverage := r.profilesKinds() && !windowOpen && (audit || !r.allPairsObserved(t, ki))
	profiling := windowOpen || coverage
	if profiling {
		frac := profilingFrac
		if coverage {
			frac /= 4
		}
		if r.cfg.Prof.Adaptive {
			// The adaptive profiler is rate-aware end to end: the
			// profiling tax scales with the kind's sampling rate,
			// anchored at the default interval profilingFrac was
			// calibrated for. Gated on Adaptive: the fixed-rate path
			// keeps the flat calibrated fraction and stays bit-identical.
			frac *= float64(prof.DefaultSamplingInterval) / float64(r.profiler.IntervalFor(ki))
		}
		over := d.MemSec() * frac
		fixed += over
		r.overheadSec += over
		r.overheadProf += over
	}
	if r.cfg.Policy == Tahoe || r.cfg.Policy == PhaseBased {
		over := syncPerRequestSec * float64(len(t.Accesses))
		fixed += over
		r.overheadSec += over
		r.overheadSync += over
	}

	// All tiers hang off one memory controller (true of Optane-class
	// hardware and of the throttled-DRAM emulators), so the task's whole
	// memory traffic is one demand on the shared memory-system resource:
	// slow-tier bytes simply cost more service time per byte, and the
	// combined latency floors cap the task's service rate. Placement can
	// therefore approach — but never beat — the DRAM-only bound.
	memSec := d.DevSecTotal()
	latSec := d.LatSecTotal()
	maxRate := 0.0
	if latSec > 0 && memSec > 0 {
		maxRate = memSec / latSec
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace.Add(trace.Event{
			Time: now, Kind: trace.TaskStart, Task: t.ID, TaskKind: t.Kind, Worker: w, OK: true,
		})
	}
	// The label is only ever read by the engine's optional trace hook;
	// formatting it unconditionally was a per-task allocation for nothing.
	label := ""
	if r.e.Trace != nil {
		label = fmt.Sprintf("task:%s#%d", t.Kind, t.ID)
	}
	tf.t, tf.began, tf.w, tf.profiled = t, now, w, profiling
	tf.flow.Label = label
	tf.stages[0] = sim.Stage{Fixed: fixed}
	tf.stages[1] = sim.Stage{Res: r.memRes, Bytes: memSec, MaxRate: maxRate}
	r.e.StartFlow(&tf.flow)

	if r.cfg.RunKernels && t.Run != nil {
		t.Run()
	}
}

// taskFlow bundles a task-execution flow with its stage backing array,
// its demand and its completion context in one pooled allocation. OnDone
// is bound once at creation; onDone returns the carrier to the pool after
// complete() has read its demand. Nothing reuses it earlier: complete()
// only schedules the redispatch, and every start() runs from that
// zero-delay dispatch timer.
type taskFlow struct {
	r        *runner
	flow     sim.Flow
	stages   [2]sim.Stage
	t        *task.Task
	began    float64
	w        int
	d        model.Demand
	profiled bool
}

func (tf *taskFlow) onDone(end float64) {
	r := tf.r
	r.complete(end, tf.began, tf.w, tf.t, &tf.d, tf.profiled)
	tf.t = nil
	r.flowPool = append(r.flowPool, tf)
}

// machineHMS returns the device view the timing model should use: for
// DRAMOnly the NVM tier never sees traffic anyway; for HWCache misses go
// to NVM per the hit ratio, which is exactly the blended view. Under fault
// injection it is the degraded view of the live fault windows — a task
// starting during a tier's bandwidth sag is charged at the sagged rate.
func (r *runner) machineHMS() mem.HMS {
	if r.flt != nil {
		return r.flt.DegradedView(r.cfg.HMS)
	}
	return r.cfg.HMS
}

// profilesKinds reports whether this policy runs the online profiler.
func (r *runner) profilesKinds() bool {
	return r.cfg.Policy == Tahoe || r.cfg.Policy == PhaseBased
}

// complete finishes task t: profiling, drift detection, dependence
// release, planning trigger, proactive scan, and redispatch.
func (r *runner) complete(end, began float64, w int, t *task.Task, d *model.Demand, profiled bool) {
	if r.cfg.Trace != nil {
		r.cfg.Trace.Add(trace.Event{
			Time: end, Kind: trace.TaskEnd, Task: t.ID, TaskKind: t.Kind, Worker: w, OK: true,
		})
	}
	r.finished[t.ID] = true
	r.completed++
	if r.promoBlocked > 0 {
		for i := range r.promoBlock {
			r.promoBlock[i] = false
		}
		r.promoBlocked = 0
	}
	for _, a := range t.Accesses {
		r.inUse[a.Obj]--
	}

	dur := end - began
	ki := r.g.KindIndex(t.ID)
	if r.profilesKinds() {
		if profiled {
			obs := r.obsScratch[:0]
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
			r.obsScratch = obs
			dev := r.profiler.Record(prof.Exec{Kind: ki, Duration: dur, Obs: obs})
			// Profiled estimates are running means: every Record shifts
			// the kind's benefits, so its cached pairs and totals go
			// stale.
			r.pt.invalidateKind(ki)
			// Count-level drift: a periodic audit whose sampled counts
			// disagree strongly with the stored profile means the kind's
			// behaviour changed within known pairs. Two consecutive
			// deviating audits re-open profiling and re-plan.
			if r.planned && dev > auditDevThreshold {
				r.auditDrift[ki]++
				if r.auditDrift[ki] >= 2 {
					r.auditDrift[ki] = 0
					r.reopenKind(ki)
				}
			} else if dev <= auditDevThreshold {
				r.auditDrift[ki] = 0
			}
		}
		if r.fb != nil {
			r.observeFeedback(t, ki, d)
		}
		r.maybePlan(end)
	}

	for _, s := range t.Succs() {
		r.remaining[s]--
		if r.remaining[s] == 0 {
			r.queue.Push(r.g.Task(s), w)
		}
	}
	r.freeWorkers = append(r.freeWorkers, w)

	if r.planned && r.cfg.Tech.Proactive && r.cfg.Policy == Tahoe {
		if r.plan.kind == "global" {
			// Idempotent: enqueues only what is still missing, so global
			// promotions that could not proceed earlier (target briefly in
			// use, no room) are retried as execution unblocks them.
			r.enforceGlobal()
		} else {
			r.proactiveScan()
		}
	}
	r.scheduleDispatch()
}

// safeFor reports whether obj may be migrated for task t: every earlier
// user has finished and no running task touches it. It first moves the
// object's user cursor past every finished user. finished[] bits only
// ever turn on, so advancing here, lazily, lands on the same first
// unfinished user that advancing after every completion would, and runs
// that never migrate never pay for it.
func (r *runner) safeFor(obj task.ObjectID, t task.TaskID) bool {
	if r.inUse[obj] > 0 {
		return false
	}
	users := r.g.Users(obj)
	cur := r.userCursor[obj]
	for cur < len(users) && r.finished[users[cur]] {
		cur++
	}
	r.userCursor[obj] = cur
	return cur >= len(users) || users[cur] >= t
}

// maxReplans bounds workload-variation re-planning so a pathological
// feedback loop (placement changes durations, durations trigger replans)
// cannot thrash.
const maxReplans = 8

// maybePlan triggers the placement decision once every kind with
// remaining executions has completed its profiling window, or — for the
// first plan only — once half the tasks have completed, so kinds that
// deep dependence chains reach late cannot hold the plan back. Replans
// need only a short cool-down (the count audit's two-strike rule
// already filters noise).
func (r *runner) maybePlan(now float64) {
	if r.planned && !r.needReplan {
		return
	}
	if r.planned && r.needReplan {
		cooldown := len(r.g.Tasks) / 50
		if cooldown < prof.DriftStreak {
			cooldown = prof.DriftStreak
		}
		if r.replans >= maxReplans || r.completed-r.lastPlanAt < cooldown {
			return
		}
	}
	// Every kind with future executions must have completed its profiling
	// window; per-byte kind profiles stand in for not-yet-seen
	// (kind, object) pairs. For the first plan, kinds not reached yet
	// (deep dependence chains) hold planning back until half the graph
	// has run; a re-plan always waits for its re-profiling to finish —
	// planning on a freshly wiped profile would consume the trigger and
	// learn nothing.
	readyToPlan := true
	for ki, rem := range r.kindRemaining {
		if rem > 0 && !r.profiler.Profiled(ki) {
			readyToPlan = false
			break
		}
	}
	if !readyToPlan {
		if r.planned || r.completed < len(r.g.Tasks)/2 {
			return
		}
	}
	// Adaptive pre-plan gate: don't let the first plan commit off
	// estimates whose noise could flip placements — densify the sensitive
	// kinds and wait for their re-profile instead (bounded by
	// adaptMaxRounds), so harmful migrations never enqueue.
	if !r.planned && r.adaptPrecheck() {
		return
	}
	if r.planned {
		r.replans++
	}
	r.needReplan = false
	r.lastPlanAt = r.completed
	r.decidePlacement(now)
	r.adaptSampling()
}

// planAudit, when set (by the equivalence test), receives every freshly
// computed plan together with the future task list it was computed from,
// before the winner is chosen or enforced.
var planAudit func(r *runner, future []*task.Task, got planResult)

// decidePlacement runs the searches the configuration enables, charges
// the solver cost, and applies the winner.
func (r *runner) decidePlacement(now float64) {
	// Tasks are stored in ID order, so the future list is born sorted.
	future := r.pt.future[:0]
	for _, t := range r.g.Tasks {
		if !r.started[t.ID] {
			future = append(future, t)
		}
	}
	r.pt.future = future

	if r.cfg.Policy == PhaseBased {
		r.plan = r.computeLevelPlan(future)
		if planAudit != nil {
			planAudit(r, future, r.plan)
		}
		r.finishPlan(now, r.plan.solverSec)
		return
	}

	// Machines with more than two tiers use the N-tier planner: one
	// multiple-choice knapsack over (chunk, tier) instead of the two-tier
	// global/local pair. Two-tier machines never enter this branch.
	if r.st.NumTiers() > 2 && (r.cfg.Tech.GlobalSearch || r.cfg.Tech.LocalSearch) {
		r.plan = r.computeTierPlan(future)
		if planAudit != nil {
			planAudit(r, future, r.plan)
		}
		r.finishPlan(now, r.plan.solverSec)
		r.enforceTierPlan()
		return
	}

	var best planResult
	have := false
	if r.cfg.Tech.GlobalSearch {
		best = r.computeGlobalPlan(future)
		if planAudit != nil {
			planAudit(r, future, best)
		}
		have = true
	}
	if r.cfg.Tech.LocalSearch {
		local := r.computeLocalPlan(future)
		if planAudit != nil {
			planAudit(r, future, local)
		}
		if !have || local.predicted < best.predicted {
			local.solverSec += best.solverSec
			best = local
		} else {
			best.solverSec += local.solverSec
		}
		have = true
	}
	if !have {
		return
	}
	r.plan = best
	r.finishPlan(now, best.solverSec)

	if r.plan.kind == "global" {
		r.enforceGlobal()
	} else if r.cfg.Tech.Proactive {
		r.proactiveScan()
	}
}

// traceObserver adapts the trace log to the migration engine's hook.
type traceObserver struct{ t *trace.Trace }

func (o traceObserver) CopyStarted(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64) {
	o.t.Add(trace.Event{Time: now, Kind: trace.MigrationStart,
		Obj: ref.Obj, Chunk: ref.Index, To: to, Bytes: bytes, OK: true})
}

func (o traceObserver) CopyFinished(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64, ok bool) {
	o.t.Add(trace.Event{Time: now, Kind: trace.MigrationEnd,
		Obj: ref.Obj, Chunk: ref.Index, To: to, Bytes: bytes, OK: ok})
}

// CopyDropped records a promotion abandoned before its copy started (no
// DRAM room): a lone MigrationEnd with OK=false, distinguishable from a
// completed move in the timeline, CSV, and any replay.
func (o traceObserver) CopyDropped(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64) {
	o.t.Add(trace.Event{Time: now, Kind: trace.MigrationEnd,
		Obj: ref.Obj, Chunk: ref.Index, To: to, Bytes: bytes})
}

// CopyRetried and CopyAbandoned record the resilience lifecycle
// (migrate.FaultObserver): one MigrationRetry event per decision, OK
// distinguishing a re-queue (true) from giving up (false).
func (o traceObserver) CopyRetried(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64, attempt int) {
	o.t.Add(trace.Event{Time: now, Kind: trace.MigrationRetry,
		Obj: ref.Obj, Chunk: ref.Index, To: to, Bytes: bytes, OK: true})
}

func (o traceObserver) CopyAbandoned(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64) {
	o.t.Add(trace.Event{Time: now, Kind: trace.MigrationRetry,
		Obj: ref.Obj, Chunk: ref.Index, To: to, Bytes: bytes})
}

// onFaultEvent observes every fault-schedule boundary: it traces the
// window, and opens/closes outage quarantines directly (outages are
// declared, not inferred from failure counts).
func (r *runner) onFaultEvent(now float64, ev fault.Event, active bool) {
	if active {
		r.faultEvents++
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace.Add(trace.Event{Time: now, Kind: trace.FaultInject,
			Label: ev.Kind.String(), To: ev.Tier, OK: active})
	}
	if ev.Kind == fault.TierOutage && int(ev.Tier) < len(r.quarantined) {
		if active {
			r.quarantineTier(now, ev.Tier, ev.Until)
		} else if r.quarantined[ev.Tier] {
			r.readmitTier(now, ev.Tier)
		}
	}
}

// onCopyFault counts injected copy failures per destination tier and
// quarantines a tier whose count since its last readmission crosses the
// threshold. The backing store is never quarantined — there is nowhere
// below it to drain to.
func (r *runner) onCopyFault(now float64, from, to mem.Tier) {
	if int(to) >= len(r.tierFaults) || to == 0 {
		return
	}
	r.tierFaults[to]++
	if !r.quarantined[to] && r.tierFaults[to] >= quarantineThreshold {
		r.quarantineTier(now, to, r.flt.RecoveryAt(to, now))
	}
}

// quarantinedTier reports whether tier t is currently quarantined; always
// false without fault injection (the slice is nil).
func (r *runner) quarantinedTier(t mem.Tier) bool {
	return int(t) < len(r.quarantined) && r.quarantined[t]
}

// quarantineTier stops targeting tier t until the given recovery point
// (or a minimum hold when the schedule names none): planners and
// promotions skip it, and current residents drain one step down so work
// keeps running at the speed of the remaining tiers. Re-entrant calls
// (an outage window opening on an already rate-quarantined tier) only
// trace once.
func (r *runner) quarantineTier(now float64, t mem.Tier, until float64) {
	if r.quarantined[t] {
		return
	}
	r.quarantined[t] = true
	r.quarantines++
	if r.cfg.OnQuarantine != nil {
		r.cfg.OnQuarantine(now, t, true)
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace.Add(trace.Event{Time: now, Kind: trace.TierQuarantine, To: t, OK: true})
	}
	if r.planned {
		r.needReplan = true
	}
	r.drainTier(t)
	if until <= now {
		until = now + minQuarantineSec
	}
	r.e.AtDaemon(until, func(at float64) {
		if r.quarantined[t] {
			r.readmitTier(at, t)
		}
	})
	r.scheduleDispatch()
}

// readmitTier reopens tier t and re-enforces the current plan so the
// drained residents repopulate it proactively.
func (r *runner) readmitTier(now float64, t mem.Tier) {
	r.quarantined[t] = false
	r.tierFaults[t] = 0
	r.readmits++
	if r.cfg.OnQuarantine != nil {
		r.cfg.OnQuarantine(now, t, false)
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace.Add(trace.Event{Time: now, Kind: trace.TierReadmit, To: t, OK: true})
	}
	if r.planned && r.cfg.Tech.Proactive && r.cfg.Policy == Tahoe {
		if r.plan.kind == "global" {
			r.enforceGlobal()
		} else {
			r.proactiveScan()
		}
	}
	r.scheduleDispatch()
}

// drainTier demotes tier t's residents one step down the hierarchy via
// the normal makeRoomOn ripple, skipping chunks that are in use or
// already moving. Chunks that cannot fit anywhere below stay put — data
// is never lost, merely slow — and the planner simply stops adding more.
func (r *runner) drainTier(t mem.Tier) {
	below := t - 1
	for below > 0 && r.quarantinedTier(below) {
		below--
	}
	for _, o := range r.g.Objects {
		if r.inUse[o.ID] > 0 || r.mig.BusyObject(o.ID) {
			continue
		}
		for _, ref := range r.st.Refs(o.ID) {
			if r.st.Tier(ref) != t || r.mig.Busy(ref) {
				continue
			}
			size := r.st.ChunkSize(ref)
			if r.st.TierAvail(below)-r.pendingTier[below] < size {
				r.makeRoomOn(below, size, nil)
			}
			if r.st.TierAvail(below)-r.pendingTier[below] < size {
				continue
			}
			r.enqueueMove(ref, below, -1)
		}
	}
}

// finishPlan charges the solver's runtime cost.
func (r *runner) finishPlan(now float64, cost float64) {
	r.planned = true
	if r.fb != nil {
		// The plan just consumed the corrections known so far; only
		// further factor movement justifies a feedback replan.
		r.fb.Snapshot()
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace.Add(trace.Event{Time: now, Kind: trace.Plan, Label: r.plan.kind, OK: true})
	}
	r.overheadSec += cost
	r.overheadPlan += cost
	// The decision runs on the main thread: model it as a short
	// serialization that delays dispatch.
	if cost > 0 {
		r.e.StartFlow(&sim.Flow{
			Label:  "runtime:plan",
			Stages: []sim.Stage{{Fixed: cost}},
			OnDone: func(float64) { r.scheduleDispatch() },
		})
	}
}

// enforceGlobal enqueues the one-time migrations of the global plan.
// Residents outside the target are demoted only when a promotion needs
// their space; gratuitous eviction of unmentioned data would churn.
// Bitset iteration is ascending (object, chunk) order — the order the
// map-based version sorted into. Filtering inline is equivalent to the
// old collect-then-promote: a promotion's eviction victims are never in
// the target set, so earlier promotions cannot change a later target
// chunk's tier or busy state within this pass.
func (r *runner) enforceGlobal() {
	r.plan.global.forEach(func(ix int) {
		ref := r.st.RefAt(ix)
		if r.st.TierAt(ix) != r.fastTier && !r.mig.Busy(ref) && !r.promoBlock[ix] {
			r.tryPromoteTo(ref, r.fastTier, r.plan.global, -1)
		}
	})
}

// enforceLevel enqueues the PhaseBased plan for a level (once per level),
// plus the next level's, giving the comparator its one-phase lookahead.
func (r *runner) enforceLevel(lv int) {
	for _, l := range []int{lv, lv + 1} {
		if l >= len(r.levelDone()) || r.levelEnforced[l] {
			continue
		}
		if l >= len(r.plan.perLevel) || r.plan.perLevel[l] == nil {
			continue
		}
		r.levelEnforced[l] = true
		target := r.plan.perLevel[l]
		// Promote the level's targets, demoting only as space requires.
		target.forEach(func(ix int) {
			ref := r.st.RefAt(ix)
			if r.st.TierAt(ix) != r.fastTier && !r.mig.Busy(ref) && !r.promoBlock[ix] {
				r.tryPromoteTo(ref, r.fastTier, target, -1)
			}
		})
	}
}

// levelDone sizes the levelEnforced slice lazily.
func (r *runner) levelDone() []bool {
	if r.levelEnforced == nil {
		maxLevel := 0
		for _, lv := range r.levels {
			if lv > maxLevel {
				maxLevel = lv
			}
		}
		r.levelEnforced = make([]bool, maxLevel+2)
	}
	return r.levelEnforced
}

// proactiveScan looks ahead over the next Lookahead undispatched tasks in
// submission order and enqueues every dependence-safe migration their
// local-search targets require, evicting farthest-next-use residents as
// needed. This is the task-graph-driven early trigger that hides copy
// time.
func (r *runner) proactiveScan() {
	if r.plan.perTask == nil {
		return
	}
	// First pass: the union of the window's targets. Eviction victims are
	// chosen outside this union, so one task's promotion never evicts a
	// chunk another task in the same window is about to need — per-task
	// keep-sets would fight each other and triple the data movement.
	p := r.pt
	windowKeep := p.keep
	windowKeep.clearAll()
	wants := p.wants[:0]
	count := 0
	for id := r.frontier(); int(id) < len(r.g.Tasks) && count < r.cfg.Lookahead; id++ {
		if r.started[id] {
			continue
		}
		count++
		target := r.plan.perTask[id]
		if target == nil {
			continue
		}
		windowKeep.orWith(target)
		t := r.g.Task(id)
		for _, a := range t.Accesses {
			base := r.st.ChunkBase(a.Obj)
			for i, ref := range r.st.Refs(a.Obj) {
				if !target.has(base+i) || r.st.TierAt(base+i) == r.fastTier || r.mig.Busy(ref) || r.promoBlock[base+i] {
					continue
				}
				if !r.safeFor(a.Obj, id) {
					continue
				}
				wants = append(wants, wantPromo{base + i, a.Obj, id})
			}
		}
	}
	p.wants = wants
	seen := p.seen
	seen.clearAll()
	for _, w := range wants {
		ref := r.st.RefAt(w.ix)
		if seen.has(w.ix) || r.mig.Busy(ref) {
			continue
		}
		seen.set(w.ix)
		r.tryPromoteTo(ref, r.fastTier, windowKeep, w.id)
	}
}

// tryPromoteTo attempts one chunk promotion to tier `to`: make room by
// demoting farthest-next-use residents, and enqueue the copy only when
// the projected headroom actually covers it — a promotion that cannot
// fit (its would-be victims are in use) is silently skipped and retried
// on a later scan, rather than enqueued to fail and stall dispatch. A
// quarantined target refuses the promotion outright; the scan retries
// after readmission.
func (r *runner) tryPromoteTo(ref heap.ChunkRef, to mem.Tier, keep planSet, forTask task.TaskID) bool {
	if r.quarantinedTier(to) {
		return false
	}
	size := r.st.ChunkSize(ref)
	r.makeRoomOn(to, size, keep)
	if r.st.TierAvail(to)-r.pendingTier[to] < size {
		return false
	}
	r.enqueueMove(ref, to, forTask)
	return true
}

// makeRoomOn enqueues demotions of the farthest-next-use residents of
// tier t not wanted by the current target set until size bytes fit.
// Victims demote stepwise: one tier down the hierarchy, not straight to
// the bottom — an evicted chunk on a three-tier machine lands in the
// middle tier first, keeping it cheaper to re-promote. When the tier
// below is itself bounded, room is made there recursively.
func (r *runner) makeRoomOn(t mem.Tier, size int64, keep planSet) {
	free := r.st.TierAvail(t) - r.pendingTier[t]
	if free >= size {
		return
	}
	type victim struct {
		ref     heap.ChunkRef
		nextUse int
	}
	var victims []victim
	for _, o := range r.g.Objects {
		if r.inUse[o.ID] > 0 || r.mig.BusyObject(o.ID) {
			continue
		}
		base := r.st.ChunkBase(o.ID)
		for i, ref := range r.st.Refs(o.ID) {
			if r.st.Tier(ref) != t || keep.has(base+i) {
				continue
			}
			// A victim's next use is its first unstarted user, so the scan
			// must originate at the execution frontier. Anchoring it at the
			// promotion's beneficiary task gave garbage orderings: global
			// enforcement passes use forTask == -1 (yielding the object's
			// first-ever, usually finished, user), and far-ahead proactive
			// promotions skipped every use between the frontier and the
			// beneficiary. Same origin as the planners (plan.go and
			// plan_ref_test.go).
			next := len(r.g.Tasks) + 1
			if nu, ok := r.g.NextUser(o.ID, r.frontier()-1); ok {
				next = int(nu)
			}
			victims = append(victims, victim{ref, next})
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].nextUse != victims[j].nextUse {
			return victims[i].nextUse > victims[j].nextUse
		}
		return victims[i].ref.Obj < victims[j].ref.Obj ||
			(victims[i].ref.Obj == victims[j].ref.Obj && victims[i].ref.Index < victims[j].ref.Index)
	})
	below := t - 1
	for below > 0 && r.quarantinedTier(below) {
		below-- // evictions skip quarantined tiers on the way down
	}
	for _, v := range victims {
		if free >= size {
			return
		}
		vsize := r.st.ChunkSize(v.ref)
		if below > 0 {
			// The tier below is bounded too: cascade the eviction down.
			if r.st.TierAvail(below)-r.pendingTier[below] < vsize {
				r.makeRoomOn(below, vsize, keep)
			}
			if r.st.TierAvail(below)-r.pendingTier[below] < vsize {
				continue // no room anywhere below; try the next victim
			}
		}
		free += vsize
		r.enqueueMove(v.ref, below, -1)
	}
}

// requestFor (reactive mode) enqueues the migrations task t's plan wants,
// right at dispatch, so their cost is exposed.
func (r *runner) requestFor(t *task.Task) {
	target := r.planTargetFor(t.ID)
	if target == nil {
		return
	}
	for _, a := range t.Accesses {
		base := r.st.ChunkBase(a.Obj)
		for i, ref := range r.st.Refs(a.Obj) {
			if target.has(base+i) && r.st.TierAt(base+i) != r.fastTier && !r.mig.Busy(ref) &&
				!r.promoBlock[base+i] && r.safeFor(a.Obj, t.ID) {
				r.tryPromoteTo(ref, r.fastTier, target, t.ID)
			}
		}
	}
}

// planTargetFor returns the plan's DRAM target set when task id runs.
func (r *runner) planTargetFor(id task.TaskID) planSet {
	switch r.plan.kind {
	case "global", "tier":
		return r.plan.global
	case "local":
		if r.plan.perTask == nil {
			return nil
		}
		return r.plan.perTask[id]
	case "phase":
		if int(r.levels[id]) < len(r.plan.perLevel) {
			return r.plan.perLevel[r.levels[id]]
		}
	}
	return nil
}

// enqueueMove hands one movement to the helper thread, tracking the
// projected per-tier headroom and the queue-synchronization overhead.
func (r *runner) enqueueMove(ref heap.ChunkRef, to mem.Tier, forTask task.TaskID) {
	size := r.st.ChunkSize(ref)
	from := r.st.Tier(ref)
	r.pendingTier[to] += size
	r.pendingTier[from] -= size
	r.overheadSec += syncPerRequestSec
	r.overheadSync += syncPerRequestSec
	r.mig.Enqueue(migrate.Request{
		Ref: ref, To: to, ForTask: forTask,
		Done: func(now float64, ok bool) {
			r.pendingTier[to] -= size
			r.pendingTier[from] += size
			if !ok && to != mem.Tier(0) {
				ix := r.st.ChunkIndex(ref)
				if !r.promoBlock[ix] {
					r.promoBlock[ix] = true
					r.promoBlocked++
				}
			}
			r.scheduleDispatch()
		},
	})
}
