package serve

import (
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/task"
)

// RunRequest is one simulated-run request. The machine, policy,
// scheduler and fault specs are the same strings the CLI flags accept
// (internal/cliutil), so a spec means the same thing typed at a shell
// and posted over HTTP.
type RunRequest struct {
	// Tenant names the requesting application; runs of one tenant share
	// a pooled-context shard. Empty is a valid (anonymous) tenant.
	Tenant string `json:"tenant,omitempty"`
	// Workload names a registered benchmark (GET /v1/workloads lists
	// them). Exactly one of Workload and Graph must be set.
	Workload string `json:"workload,omitempty"`
	// Graph is an inline task graph to simulate instead of a registered
	// workload.
	Graph *GraphSpec `json:"graph,omitempty"`
	// Scale sizes the workload instance (0 = the workload's default).
	Scale int `json:"scale,omitempty"`
	// Policy is the placement policy name (default "tahoe").
	Policy string `json:"policy,omitempty"`
	// Scheduler is the ready-queue discipline (default "worksteal").
	Scheduler string `json:"scheduler,omitempty"`
	// Machine describes the simulated machine (zero value = the
	// experiment-default 128 MB DRAM + half-bandwidth NVM).
	Machine cliutil.MachineSpec `json:"machine"`
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

// RunResponse is one run's result. Error is set (and the result fields
// zero) when the run itself failed; request-level errors are rejected
// before admission with an HTTP status instead.
type RunResponse struct {
	ID          uint64  `json:"id"`
	Tenant      string  `json:"tenant,omitempty"`
	Workload    string  `json:"workload"`
	Policy      string  `json:"policy,omitempty"`
	Machine     string  `json:"machine,omitempty"`
	TimeSec     float64 `json:"time_sec"`
	Tasks       int     `json:"tasks"`
	Migrations  int     `json:"migrations"`
	BytesMoved  int64   `json:"bytes_moved"`
	Replans     int     `json:"replans"`
	PlanKind    string  `json:"plan_kind,omitempty"`
	EnergyJ     float64 `json:"energy_j"`
	FaultEvents int     `json:"fault_events,omitempty"`
	Quarantines int     `json:"quarantines,omitempty"`
	Readmits    int     `json:"readmits,omitempty"`
	// FeedbackCorrections/FeedbackReplans report the observed-vs-
	// predicted loop's activity when the request enabled it.
	FeedbackCorrections int `json:"feedback_corrections,omitempty"`
	FeedbackReplans     int `json:"feedback_replans,omitempty"`
	// Degraded marks a run served under the load-shedding degraded mode
	// (capped scale, no trace).
	Degraded    bool    `json:"degraded,omitempty"`
	TraceEvents int     `json:"trace_events,omitempty"`
	TraceSHA256 string  `json:"trace_sha256,omitempty"`
	WaitMS      float64 `json:"wait_ms"`
	RunMS       float64 `json:"run_ms"`
	Error       string  `json:"error,omitempty"`
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
	return task.In, fmt.Errorf("serve: unknown access mode %q (want in|out|inout)", s)
}

// MaxInlinePairs caps an inline graph's distinct kinds times its objects.
// The runtime keeps per-(kind, object) tables (the profiler's pairs, the
// planner's benefit cache), so this product, not the body size, bounds
// what one run allocates: a 1 MiB body could otherwise name ~490M pairs.
const MaxInlinePairs = 1 << 20

// validate rejects malformed inline graphs before admission.
func (g *GraphSpec) validate() error {
	if len(g.Objects) == 0 || len(g.Tasks) == 0 {
		return fmt.Errorf("serve: inline graph needs at least one object and one task")
	}
	kinds := make(map[string]struct{})
	for i, o := range g.Objects {
		if o.Size <= 0 {
			return fmt.Errorf("serve: inline object %d has size %d", i, o.Size)
		}
	}
	for ti, t := range g.Tasks {
		if t.Kind == "" {
			return fmt.Errorf("serve: inline task %d has no kind", ti)
		}
		kinds[t.Kind] = struct{}{}
		if t.CPUSec < 0 {
			return fmt.Errorf("serve: inline task %d has negative cpu_sec", ti)
		}
		if len(t.Accesses) == 0 {
			return fmt.Errorf("serve: inline task %d accesses nothing", ti)
		}
		for ai, a := range t.Accesses {
			if a.Obj < 0 || a.Obj >= len(g.Objects) {
				return fmt.Errorf("serve: inline task %d access %d references object %d of %d", ti, ai, a.Obj, len(g.Objects))
			}
			if _, err := parseMode(a.Mode); err != nil {
				return err
			}
			if a.Loads < 0 || a.Stores < 0 {
				return fmt.Errorf("serve: inline task %d access %d has negative traffic", ti, ai)
			}
			if a.MLP != 0 && !(a.MLP >= 1) {
				return fmt.Errorf("serve: inline task %d access %d has mlp %g (want 0 for the default or >= 1)", ti, ai, a.MLP)
			}
		}
	}
	if len(kinds)*len(g.Objects) > MaxInlinePairs {
		return fmt.Errorf("serve: inline graph has %d kinds and %d objects, above the cap of %d (kind, object) pairs",
			len(kinds), len(g.Objects), MaxInlinePairs)
	}
	return nil
}

// build constructs the task graph (call validate first).
func (g *GraphSpec) build() *task.Graph {
	name := g.Name
	if name == "" {
		name = "inline"
	}
	b := task.NewBuilder(name)
	ids := make([]task.ObjectID, len(g.Objects))
	for i, o := range g.Objects {
		oname := o.Name
		if oname == "" {
			oname = fmt.Sprintf("o%d", i)
		}
		ids[i] = b.ObjectOpt(oname, o.Size, !o.NoChunk)
	}
	for _, t := range g.Tasks {
		accs := make([]task.Access, len(t.Accesses))
		for ai, a := range t.Accesses {
			mode, _ := parseMode(a.Mode)
			mlp := a.MLP
			if mlp == 0 {
				mlp = 1
			}
			accs[ai] = task.Access{
				Obj:    ids[a.Obj],
				Mode:   mode,
				Loads:  a.Loads,
				Stores: a.Stores,
				MLP:    mlp,
			}
		}
		b.Submit(t.Kind, t.CPUSec, accs, nil)
	}
	return b.Build()
}
