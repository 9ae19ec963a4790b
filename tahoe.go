// Package tahoe is a runtime data manager for task-parallel programs on
// non-volatile-memory-based heterogeneous memory systems (HMS) — a
// from-scratch Go reproduction of the system line published at SC 2018
// ("Runtime data management on non-volatile memory-based heterogeneous
// memory for task-parallel programs").
//
// The library contains everything needed to reproduce the paper's
// evaluation on a laptop, with the NVM hardware replaced by a
// deterministic simulation substrate:
//
//   - a task-parallel programming model (tasks annotated with in/out/inout
//     data accesses; dependences inferred; work-stealing scheduling), plus
//     a real parallel executor for the numerical kernels;
//   - a simulated DRAM+NVM machine with configurable, asymmetric
//     bandwidth and latency, processor-shared bandwidth and per-stream
//     latency floors;
//   - the runtime under study: online counter-sampled profiling,
//     bandwidth/latency sensitivity classification, benefit and
//     migration-cost models with offline-calibrated constant factors,
//     0-1-knapsack placement at global and per-task granularity, and
//     dependence-safe proactive migration by a helper thread;
//   - the baselines: DRAM-only, NVM-only, first-touch, offline-profiled
//     static placement (X-Mem), hardware caching (Memory Mode), and a
//     phase-based planner;
//   - nine application workloads and two calibration microbenchmarks,
//     each with analytic traffic models and real, verified kernels; and
//   - the full experiment harness regenerating every table and figure of
//     the evaluation (see EXPERIMENTS.md).
//
// Quick start:
//
//	h := tahoe.NewHMS(tahoe.DRAM(), tahoe.NVMBandwidth(0.5), 128*tahoe.MB)
//	cfg := tahoe.DefaultConfig(h)
//	g, _ := tahoe.BuildWorkload("cholesky", tahoe.WorkloadParams{})
//	res, err := tahoe.Run(g.Graph, cfg)
package tahoe

import (
	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Re-exported machine model types and byte units.
type (
	// DeviceSpec describes one memory device's performance envelope.
	DeviceSpec = mem.DeviceSpec
	// HMS describes the heterogeneous memory system under test.
	HMS = mem.HMS
	// TierSpec describes one tier of an N-tier HMS: device plus capacity.
	TierSpec = mem.TierSpec
	// Tier identifies one tier of the machine (0 = slowest).
	Tier = mem.Tier
)

// Byte sizes.
const (
	KB = mem.KB
	MB = mem.MB
	GB = mem.GB
)

// Device presets.
var (
	DRAM         = mem.DRAM
	STTRAM       = mem.STTRAM
	PCRAM        = mem.PCRAM
	ReRAM        = mem.ReRAM
	OptanePM     = mem.OptanePM
	CXL          = mem.CXL
	NVMBandwidth = mem.NVMBandwidth
	NVMLatency   = mem.NVMLatency
	NewHMS       = mem.NewHMS
	DRAMOnlyHMS  = mem.DRAMOnly
	// NewTieredHMS builds an N-tier machine from specs ordered slowest to
	// fastest; DRAMCXLNVM is the three-tier DRAM + CXL + Optane preset.
	NewTieredHMS = mem.NewTieredHMS
	DRAMCXLNVM   = mem.DRAMCXLNVM
)

// Runtime configuration and results.
type (
	// Config describes one run of the runtime.
	Config = core.Config
	// Policy selects the data-placement strategy.
	Policy = core.Policy
	// Scheduler selects the ready-queue discipline.
	Scheduler = core.Scheduler
	// Techniques toggles the ablatable parts of the full system.
	Techniques = core.Techniques
	// Result summarizes one simulated run.
	Result = core.Result
	// ProfilerConfig controls the sampling emulation.
	ProfilerConfig = prof.Config
)

// Placement policies.
const (
	NVMOnly    = core.NVMOnly
	DRAMOnly   = core.DRAMOnly
	FirstTouch = core.FirstTouch
	XMem       = core.XMem
	HWCache    = core.HWCache
	PhaseBased = core.PhaseBased
	Tahoe      = core.Tahoe
)

// Schedulers.
const (
	WorkSteal = core.WorkSteal
	FIFOQueue = core.FIFOQueue
	LIFOQueue = core.LIFOQueue
	RankSched = core.RankSched
)

// DefaultConfig returns the full system configured for the given machine.
var DefaultConfig = core.DefaultConfig

// AllTechniques enables every runtime technique.
var AllTechniques = core.AllTechniques

// Run executes a task graph under a configuration on the simulated HMS.
var Run = core.Run

// Task-model types, for building custom workloads against the runtime.
type (
	// Graph is an immutable task DAG plus its data objects.
	Graph = task.Graph
	// GraphBuilder constructs a Graph from object declarations and task
	// submissions, inferring dependences from access modes. Submit copies
	// each access list, so callers may reuse theirs; Reset builds the
	// next graph in the last one's storage, which ends that graph.
	GraphBuilder = task.Builder
	// Access declares one task's use of one object.
	Access = task.Access
	// AccessMode is in / out / inout.
	AccessMode = task.AccessMode
	// ObjectID names a data object within one graph.
	ObjectID = task.ObjectID
	// TaskID names a task within one graph.
	TaskID = task.TaskID
)

// Access modes.
const (
	In    = task.In
	Out   = task.Out
	InOut = task.InOut
)

// NewGraphBuilder starts a new task graph.
var NewGraphBuilder = task.NewBuilder

// Workload construction.
type (
	// WorkloadParams sizes a benchmark instance.
	WorkloadParams = workloads.Params
	// Workload is a built benchmark: graph plus optional numerical check.
	Workload = workloads.Built
	// WorkloadSpec describes one registered benchmark.
	WorkloadSpec = workloads.Spec
)

// Workloads returns every registered benchmark.
var Workloads = workloads.All

// AppWorkloads returns the application benchmarks (the ones in the main
// experiment figures).
var AppWorkloads = workloads.Apps

// BuildWorkload constructs a named benchmark instance.
func BuildWorkload(name string, p WorkloadParams) (Workload, error) {
	s, err := workloads.ByName(name)
	if err != nil {
		return Workload{}, err
	}
	if err := s.CheckScale(p.Scale); err != nil {
		return Workload{}, err
	}
	return s.Build(p), nil
}

// Execute runs a graph's real kernels on a parallel work-stealing pool
// (real goroutines, real math — no simulation), honoring all dependences.
func Execute(g *Graph, workers int) error {
	return exec.NewPool(workers).Run(g)
}

// Calibration.
type (
	// CalibrationFactors holds CF_bw, CF_lat and the measured peak
	// bandwidth for a machine.
	CalibrationFactors = calib.Factors
)

// Calibrate computes the model's constant factors for a machine, once per
// (machine, sampling-config) pair.
var Calibrate = calib.Calibrate

// DefaultProfiler returns the paper-faithful sampling configuration.
var DefaultProfiler = prof.DefaultConfig

// Reporting.
type (
	// Table is an experiment's rendered output.
	Table = report.Table
	// Trace is an in-memory event log of one run (set Config.Trace).
	Trace = trace.Trace
	// TraceEvent is one timeline entry: 64 bytes holding no pointer. Its
	// task kind and label index its Trace's name table; Trace.Name reads
	// them back and Trace.Intern enters a new one.
	TraceEvent = trace.Event
)

// Fault injection and resilience.
type (
	// FaultSchedule is a deterministic, virtual-time script of injected
	// faults (set Config.Faults). nil reproduces the fault-free run
	// bit-identically.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled fault.
	FaultEvent = fault.Event
)

// ParseFaultSpec parses a fault-schedule spec string such as
// "rate=1,seed=7,horizon=2" ("" or "none" yields a nil schedule).
var ParseFaultSpec = fault.ParseSpec

// RandomFaults generates a seeded random fault schedule with the given
// mean event rate (events per simulated second) over a horizon.
var RandomFaults = fault.Random

// Trace-driven replay.
type (
	// Recording is one recorded run: metadata plus the full event and
	// dispatch log, replayable under a different machine or policy.
	Recording = replay.Recording
	// RecordingMeta identifies what a recording captured.
	RecordingMeta = replay.Meta
)

// Record runs a graph with recording enabled and returns the result
// together with a replayable recording of the schedule.
var Record = replay.Record

// Replay re-runs a recorded schedule under a (possibly different)
// configuration, pinning the scheduler's pop order to the recording.
var Replay = replay.Replay

// LoadRecording parses a recording saved with Recording.Save.
var LoadRecording = replay.Load

// Multi-node strong scaling (the Edison experiments).
type (
	// ClusterConfig describes a strong-scaling job across nodes.
	ClusterConfig = cluster.Config
	// ClusterResult is one job's outcome.
	ClusterResult = cluster.Result
	// Network is the interconnect's first-order cost model.
	Network = cluster.Network
	// Distributed is a workload's strong-scaling decomposition.
	Distributed = workloads.Distributed
)

// StrongScale runs a distributed workload at the configured scale.
var StrongScale = cluster.StrongScale

// EdisonNetwork approximates a Cray Aries-class interconnect.
var EdisonNetwork = cluster.EdisonNetwork

// DistributedWorkload returns a workload's strong-scaling decomposition
// (heat and cg are supported).
var DistributedWorkload = workloads.DistributedByName

// ClusterFaultSchedule scripts cluster-scale fault injection: seeded
// whole-node outages plus per-node device-fault schedules that every
// rank on the node shares.
type ClusterFaultSchedule = fault.ClusterSchedule

// ParseClusterFaultSpec parses a cluster fault-schedule spec string such
// as "nodes=4,node-rate=10,seed=7,horizon=0.05" ("" or "none" yields a
// nil schedule).
var ParseClusterFaultSpec = fault.ParseClusterSpec

// RandomClusterFaults generates a seeded cluster schedule: node outages
// at nodeRate (outages per second per node) and per-node device faults
// at devRate (events per second), over a horizon.
var RandomClusterFaults = fault.RandomCluster
