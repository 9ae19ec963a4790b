package cliutil

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/task"
	"repro/internal/workloads"
)

// RunRequest describes one simulated run: a registered workload or an
// inline task graph, the machine, and the runtime's settings. It is the
// serve daemon's /v1/run request schema, and the tahoe and tahoe-replay
// flags fill one too, so a spec means the same thing typed at a shell
// and posted over HTTP. A zero field takes its default; Resolve checks
// the rest.
type RunRequest struct {
	// Tenant names the requesting application. It is only echoed in the
	// response. Empty is a valid (anonymous) tenant.
	Tenant string `json:"tenant,omitempty"`
	// Workload names a registered benchmark (GET /v1/workloads lists
	// them). Exactly one of Workload and Graph must be set.
	Workload string `json:"workload,omitempty"`
	// Graph is an inline task graph to simulate instead of a registered
	// workload.
	Graph *GraphSpec `json:"graph,omitempty"`
	// Scale sizes the workload instance (0 = the workload's default; an
	// inline graph ignores it).
	Scale int `json:"scale,omitempty"`
	// Policy is the placement policy name (default "tahoe").
	Policy string `json:"policy,omitempty"`
	// Scheduler is the ready-queue discipline (default "worksteal").
	Scheduler string `json:"scheduler,omitempty"`
	// Machine describes the simulated machine (zero value = the
	// experiment-default 128 MB DRAM + half-bandwidth NVM).
	Machine MachineSpec `json:"machine"`
	// Workers is the simulated worker count (0 = 8).
	Workers int `json:"workers,omitempty"`
	// Lookahead is the proactive-migration lookahead (0 = 16).
	Lookahead int `json:"lookahead,omitempty"`
	// Faults is a fault-schedule spec, e.g. "rate=1,seed=7,horizon=2"
	// ("" = none).
	Faults string `json:"faults,omitempty"`
	// Feedback switches the observed-vs-predicted correction loop:
	// "on" ("" = off).
	Feedback string `json:"feedback,omitempty"`
	// NoCalibrate skips the per-machine model calibration (which is
	// otherwise served from the shared singleflight cache).
	NoCalibrate bool `json:"no_calibrate,omitempty"`
	// Trace records the run's event log and returns its length and
	// SHA-256 (the byte-identity fingerprint tenant-isolation tests
	// compare). Shed while the server is degraded.
	Trace bool `json:"trace,omitempty"`
}

// Run is a resolved RunRequest: the configuration exactly as the run
// will see it, less the model's calibration factors, and the recipe for
// its graph. Nothing is built until Build.
type Run struct {
	Config core.Config
	// Workload is the registered workload to build at Scale when Graph
	// is nil.
	Workload workloads.Spec
	Scale    int
	// Graph is the inline graph to build instead.
	Graph *GraphSpec
}

// Resolve checks the request and resolves it into a Run. A zero field
// takes its default: policy tahoe, scheduler worksteal, the default
// machine, 8 workers, lookahead 16. Any other value goes into the
// configuration, which core.Config.Validate judges. A named workload's
// scale must pass its CheckScale, which bounds its graph to
// workloads.MaxTasks tasks before anything is built.
func (r *RunRequest) Resolve() (Run, error) {
	hms, err := r.Machine.Build()
	if err != nil {
		return Run{}, err
	}
	run := Run{Config: core.DefaultConfig(hms), Scale: r.Scale}
	cfg := &run.Config
	if r.Policy != "" {
		if cfg.Policy, err = core.PolicyByName(r.Policy); err != nil {
			return Run{}, err
		}
	}
	if r.Scheduler != "" {
		if cfg.Scheduler, err = core.SchedulerByName(r.Scheduler); err != nil {
			return Run{}, err
		}
	}
	if r.Workers != 0 {
		cfg.Workers = r.Workers
	}
	if r.Lookahead != 0 {
		cfg.Lookahead = r.Lookahead
	}
	if cfg.Faults, err = fault.ParseSpec(r.Faults); err != nil {
		return Run{}, err
	}
	if cfg.Feedback, err = ParseFeedback(r.Feedback, cfg.Feedback); err != nil {
		return Run{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Run{}, err
	}
	switch {
	case r.Graph != nil:
		if r.Workload != "" {
			return Run{}, fmt.Errorf("cliutil: request has both a workload name and an inline graph")
		}
		if err := r.Graph.validate(); err != nil {
			return Run{}, err
		}
		run.Graph = r.Graph
	case r.Workload == "":
		return Run{}, fmt.Errorf("cliutil: request needs a workload name or an inline graph")
	default:
		if run.Workload, err = workloads.ByName(r.Workload); err != nil {
			return Run{}, err
		}
		if err := run.Workload.CheckScale(r.Scale); err != nil {
			return Run{}, err
		}
	}
	return run, nil
}

// Build builds the run's graph in b, which it resets; nil builds in a
// fresh Builder. Config.RunKernels attaches a named workload's kernels
// and its numerical check.
func (r *Run) Build(b *task.Builder) workloads.Built {
	if r.Graph == nil {
		return r.Workload.Build(workloads.Params{Scale: r.Scale, Kernels: r.Config.RunKernels, Into: b})
	}
	if b == nil {
		b = new(task.Builder)
	}
	return workloads.Built{Graph: r.Graph.build(b)}
}

// GraphSpec is an inline task graph: the request-schema mirror of
// task.Builder. Objects are declared first; tasks reference them by
// index and dependences are inferred from access modes, exactly as the
// library API does.
type GraphSpec struct {
	// Name labels the graph in responses (default "inline").
	Name string `json:"name,omitempty"`
	// Objects declares the data objects.
	Objects []ObjectSpec `json:"objects"`
	// Tasks declares the tasks in submission order.
	Tasks []TaskSpec `json:"tasks"`
}

// ObjectSpec declares one data object.
type ObjectSpec struct {
	Name string `json:"name,omitempty"`
	// Size is the object's footprint in bytes.
	Size int64 `json:"size"`
	// NoChunk pins the object whole (no chunked migration).
	NoChunk bool `json:"no_chunk,omitempty"`
}

// TaskSpec declares one task.
type TaskSpec struct {
	Kind string `json:"kind"`
	// CPUSec is the task's pure compute time in seconds.
	CPUSec float64 `json:"cpu_sec"`
	// Accesses declares the task's object uses.
	Accesses []AccessSpec `json:"accesses"`
}

// AccessSpec declares one task's use of one object.
type AccessSpec struct {
	// Obj indexes into GraphSpec.Objects.
	Obj int `json:"obj"`
	// Mode is "in", "out" or "inout".
	Mode string `json:"mode"`
	// Loads and Stores are main-memory accesses in cache lines.
	Loads  int64 `json:"loads"`
	Stores int64 `json:"stores"`
	// MLP is the stream's memory-level parallelism: 0 (the default)
	// means 1, i.e. dependent accesses; any other value must be >= 1.
	MLP float64 `json:"mlp,omitempty"`
}

// parseMode maps the JSON access-mode names.
func parseMode(s string) (task.AccessMode, error) {
	switch s {
	case "in":
		return task.In, nil
	case "out":
		return task.Out, nil
	case "inout":
		return task.InOut, nil
	}
	return task.In, fmt.Errorf("cliutil: unknown access mode %q (want in|out|inout)", s)
}

// MaxInlinePairs caps an inline graph's distinct kinds times its objects.
// The runtime keeps per-(kind, object) tables (the profiler's pairs, the
// planner's benefit cache), so this product, not the body size, bounds
// what one run allocates: a 1 MiB body could otherwise name ~490M pairs.
const MaxInlinePairs = 1 << 20

// validate rejects malformed inline graphs before admission.
func (g *GraphSpec) validate() error {
	if len(g.Objects) == 0 || len(g.Tasks) == 0 {
		return fmt.Errorf("cliutil: inline graph needs at least one object and one task")
	}
	kinds := make(map[string]struct{})
	for i, o := range g.Objects {
		if o.Size <= 0 {
			return fmt.Errorf("cliutil: inline object %d has size %d", i, o.Size)
		}
	}
	for ti, t := range g.Tasks {
		if t.Kind == "" {
			return fmt.Errorf("cliutil: inline task %d has no kind", ti)
		}
		kinds[t.Kind] = struct{}{}
		if t.CPUSec < 0 {
			return fmt.Errorf("cliutil: inline task %d has negative cpu_sec", ti)
		}
		if len(t.Accesses) == 0 {
			return fmt.Errorf("cliutil: inline task %d accesses nothing", ti)
		}
		for ai, a := range t.Accesses {
			if a.Obj < 0 || a.Obj >= len(g.Objects) {
				return fmt.Errorf("cliutil: inline task %d access %d references object %d of %d", ti, ai, a.Obj, len(g.Objects))
			}
			if _, err := parseMode(a.Mode); err != nil {
				return err
			}
			if a.Loads < 0 || a.Stores < 0 {
				return fmt.Errorf("cliutil: inline task %d access %d has negative traffic", ti, ai)
			}
			if a.MLP != 0 && !(a.MLP >= 1) {
				return fmt.Errorf("cliutil: inline task %d access %d has mlp %g (want 0 for the default or >= 1)", ti, ai, a.MLP)
			}
		}
	}
	if len(kinds)*len(g.Objects) > MaxInlinePairs {
		return fmt.Errorf("cliutil: inline graph has %d kinds and %d objects, above the cap of %d (kind, object) pairs",
			len(kinds), len(g.Objects), MaxInlinePairs)
	}
	return nil
}

// build constructs the task graph in b, which it resets (call validate
// first). Objects are declared in order, so object i gets ID i.
func (g *GraphSpec) build(b *task.Builder) *task.Graph {
	name := g.Name
	if name == "" {
		name = "inline"
	}
	b.Reset(name)
	for i, o := range g.Objects {
		oname := o.Name
		if oname == "" {
			oname = "o" + strconv.Itoa(i)
		}
		b.ObjectOpt(oname, o.Size, !o.NoChunk)
	}
	accs := make([]task.Access, 0, 8) // grows only for a task of more accesses
	for _, t := range g.Tasks {
		accs = accs[:0]
		for _, a := range t.Accesses {
			mode, _ := parseMode(a.Mode)
			mlp := a.MLP
			if mlp == 0 {
				mlp = 1
			}
			accs = append(accs, task.Access{
				Obj:    task.ObjectID(a.Obj),
				Mode:   mode,
				Loads:  a.Loads,
				Stores: a.Stores,
				MLP:    mlp,
			})
		}
		b.Submit(t.Kind, t.CPUSec, accs, nil)
	}
	return b.Build()
}
