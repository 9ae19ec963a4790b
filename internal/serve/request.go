package serve

import "repro/internal/cliutil"

// The /v1/run request schema lives in internal/cliutil, beside the
// machine spec, because the CLIs fill and resolve the same request.
type (
	RunRequest = cliutil.RunRequest
	GraphSpec  = cliutil.GraphSpec
	ObjectSpec = cliutil.ObjectSpec
	TaskSpec   = cliutil.TaskSpec
	AccessSpec = cliutil.AccessSpec
)

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
