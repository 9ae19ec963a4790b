// Package core implements the runtime data manager for task-parallel
// programs on NVM-based heterogeneous memory — the paper's contribution.
//
// The runtime executes a task graph on a simulated HMS machine and,
// depending on the policy, profiles the first executions of each task
// kind with sampled hardware counters, models the benefit and cost of
// moving each data object (or chunk) into DRAM, solves the resulting 0-1
// knapsack at global (whole-graph) and local (task-by-task) granularity,
// and enforces the chosen plan with a helper thread that proactively
// migrates data as soon as the task graph makes it dependence-safe —
// hiding copy time under task execution.
//
// The baseline policies (DRAM-only, NVM-only, first-touch, offline-
// profiled static placement, hardware caching, and phase-based planning)
// run through the same machinery with the corresponding steps disabled,
// so every comparison in the experiments is apples-to-apples.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
)

// Policy selects the data-placement strategy of a run.
type Policy int

const (
	// NVMOnly keeps all data in NVM: the lower bound.
	NVMOnly Policy = iota
	// DRAMOnly keeps all data in DRAM with unbounded capacity: the upper
	// bound every experiment normalizes against.
	DRAMOnly
	// FirstTouch fills DRAM with objects in first-use order, never moves.
	FirstTouch
	// XMem is the offline-profiling baseline: it knows the whole graph's
	// aggregate per-object traffic exactly (an oracle a real offline
	// profiler approximates), places once by knapsack at startup, never
	// migrates, and does not distinguish reads from writes.
	XMem
	// HWCache models Optane's Memory Mode: DRAM acts as a direct-mapped
	// cache in front of NVM, invisible to software.
	HWCache
	// PhaseBased is the Unimem-style comparator: it plans per topological
	// level of the graph ("phase") with the same models as Tahoe, but
	// migrates reactively at phase boundaries, without the task graph's
	// lookahead.
	PhaseBased
	// Tahoe is the full system under study.
	Tahoe
	// Pinned places exactly the objects selected by Config.Pin in DRAM at
	// startup (free of charge) and never migrates: the per-object
	// placement-sensitivity experiment's instrument.
	Pinned
)

// String names the policy as experiments report it.
func (p Policy) String() string {
	switch p {
	case NVMOnly:
		return "NVM-only"
	case DRAMOnly:
		return "DRAM-only"
	case FirstTouch:
		return "FirstTouch"
	case XMem:
		return "X-Mem"
	case HWCache:
		return "HW-Cache"
	case PhaseBased:
		return "PhaseBased"
	case Tahoe:
		return "Tahoe"
	case Pinned:
		return "Pinned"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// policyNames maps the stable CLI/API names to policies. Pinned is
// deliberately absent: it needs a Pin selector no name can carry.
var policyNames = map[string]Policy{
	"dram":       DRAMOnly,
	"nvm":        NVMOnly,
	"firsttouch": FirstTouch,
	"xmem":       XMem,
	"hwcache":    HWCache,
	"phase":      PhaseBased,
	"tahoe":      Tahoe,
}

// PolicyByName resolves a policy from its stable lowercase name — the
// one the CLI flags and the serve daemon's request schema accept.
func PolicyByName(name string) (Policy, error) {
	if p, ok := policyNames[name]; ok {
		return p, nil
	}
	return Tahoe, fmt.Errorf("core: unknown policy %q (want one of %s)", name, strings.Join(PolicyNames(), "|"))
}

// PolicyNames lists the selectable policy names in stable order.
func PolicyNames() []string {
	out := make([]string, 0, len(policyNames))
	for n := range policyNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Scheduler selects the ready-queue discipline.
type Scheduler int

const (
	// WorkSteal is the default: per-worker deques with stealing.
	WorkSteal Scheduler = iota
	// FIFOQueue is a centralized breadth-first queue.
	FIFOQueue
	// LIFOQueue is a centralized depth-first queue.
	LIFOQueue
	// RankSched dispatches by HEFT-style upward rank.
	RankSched
)

// String names the scheduler.
func (s Scheduler) String() string {
	switch s {
	case WorkSteal:
		return "worksteal"
	case FIFOQueue:
		return "fifo"
	case LIFOQueue:
		return "lifo"
	case RankSched:
		return "rank"
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// schedulerNames maps the stable names (Scheduler.String values) back to
// schedulers.
var schedulerNames = map[string]Scheduler{
	"worksteal": WorkSteal,
	"fifo":      FIFOQueue,
	"lifo":      LIFOQueue,
	"rank":      RankSched,
}

// SchedulerByName resolves a scheduler from its stable name.
func SchedulerByName(name string) (Scheduler, error) {
	if s, ok := schedulerNames[name]; ok {
		return s, nil
	}
	return WorkSteal, fmt.Errorf("core: unknown scheduler %q (want one of %s)", name, strings.Join(SchedulerNames(), "|"))
}

// SchedulerNames lists the selectable scheduler names in stable order.
func SchedulerNames() []string {
	out := make([]string, 0, len(schedulerNames))
	for n := range schedulerNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Techniques are the individually ablatable parts of the full system —
// the contribution-breakdown experiment toggles these one by one.
type Techniques struct {
	// GlobalSearch considers one whole-graph placement.
	GlobalSearch bool
	// LocalSearch considers per-task placements with migrations between.
	LocalSearch bool
	// Chunking partitions large regular objects for fine-grained moves.
	Chunking bool
	// InitialPlacement seeds DRAM from the static (compiler-analysis
	// style) reference-count estimate before execution starts.
	InitialPlacement bool
	// Proactive migrates ahead of need using task-graph lookahead; when
	// false, migrations happen reactively at dispatch and their copy time
	// is exposed.
	Proactive bool
	// DistinguishRW models loads and stores separately (equations 4/5
	// instead of 2/3).
	DistinguishRW bool
}

// AllTechniques enables the full system.
func AllTechniques() Techniques {
	return Techniques{
		GlobalSearch:     true,
		LocalSearch:      true,
		Chunking:         true,
		InitialPlacement: true,
		Proactive:        true,
		DistinguishRW:    true,
	}
}

// The runtime's own costs, charged into the simulated makespan so the
// "pure runtime cost" accounting is honest. The magnitudes match what
// the paper reports (sub-3% total runtime cost); the placement solver's
// cost per item is solverItemSec (plan.go).
const (
	// profilingFrac inflates a task's time while its kind is being
	// profiled (counter multiplexing and sampling interrupts).
	profilingFrac = 0.02
	// syncPerRequestSec is the main-thread cost of queueing or checking
	// one helper-thread request.
	syncPerRequestSec = 2e-6
)

// Config describes one run.
type Config struct {
	HMS       mem.HMS
	Workers   int
	Policy    Policy
	Scheduler Scheduler
	Tech      Techniques
	Prof      prof.Config
	// Feedback configures the observed-vs-predicted correction loop
	// (profiling policies only). Disabled — the zero value — runs
	// bit-identically to a build without the subsystem.
	Feedback feedback.Config

	// Lookahead is how many upcoming tasks (in submission order) the
	// proactive migration scan covers.
	Lookahead int
	// ChunkTarget is the preferred chunk size for partitioned objects;
	// 0 derives the fastest tier's capacity / 8.
	ChunkTarget int64
	// MaxChunks bounds the partitioning of one object.
	MaxChunks int
	// CFBw and CFLat are the calibrated constant factors (1 if zero).
	CFBw, CFLat float64
	// RunKernels executes each task's real kernel during the simulation
	// (slower; used by correctness tests and examples).
	RunKernels bool
	// Pin selects the objects (by name) the Pinned policy places in DRAM.
	Pin func(objName string) bool
	// Trace, if non-nil, records the run's task, migration and planning
	// events for offline analysis.
	Trace *trace.Trace
	// NewQueue, if non-nil, overrides Scheduler with a custom ready-queue
	// constructor. The replayer uses it to pin a recorded dispatch order;
	// started reports whether a task has begun execution, letting such a
	// queue skip recorded occurrences that this run already consumed.
	NewQueue func(workers int, started func(task.TaskID) bool) sched.Queue
	// Faults, if non-nil, injects the scheduled faults into the run and
	// arms the runtime's resilience machinery (migration retry/backoff,
	// per-copy timeouts, tier quarantine). nil — and, bit-identically, an
	// empty schedule — reproduces the fault-free run exactly.
	Faults *fault.Schedule
}

// MaxWorkers bounds Config.Workers: runs size per-worker scheduler state
// from it, and it arrives from flags, requests and recordings (E8: 32).
const MaxWorkers = 1024

// DefaultConfig returns a full-system configuration on the given machine.
func DefaultConfig(h mem.HMS) Config {
	return Config{
		HMS:       h,
		Workers:   8,
		Policy:    Tahoe,
		Scheduler: WorkSteal,
		Tech:      AllTechniques(),
		Prof:      prof.DefaultConfig(),
		Lookahead: 16,
		MaxChunks: 16,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.HMS.Validate(); err != nil {
		return err
	}
	if c.Workers < 1 || c.Workers > MaxWorkers {
		return fmt.Errorf("core: %d workers, want 1 to %d", c.Workers, MaxWorkers)
	}
	if c.Lookahead < 0 {
		return fmt.Errorf("core: negative lookahead")
	}
	if c.Policy == Tahoe && !c.Tech.GlobalSearch && !c.Tech.LocalSearch {
		return fmt.Errorf("core: Tahoe needs at least one of global/local search")
	}
	if c.Policy == Pinned && c.Pin == nil {
		return fmt.Errorf("core: Pinned policy needs a Pin selector")
	}
	return c.Faults.Validate(c.HMS.NumTiers())
}
