// Package replay records complete runs of the simulated runtime and
// re-executes them with the scheduler pinned, so that two runs differing
// only in machine, policy, or migration behaviour can be compared with
// placement as the sole varying factor — the record-then-counterfactual
// methodology the evaluation's central claim rests on.
//
// What is pinned and what is re-simulated: a recording captures the
// scheduler's complete decision sequence — every queue pop, including
// pops whose task then blocked on an in-flight migration — plus every
// task, migration (with outcome), and planning event. A replay feeds the
// pop sequence back through sched.Recorded while the machine model,
// placement policy, migration engine, and timing all run live. Under the
// recording's own machine and policy the replay is bit-identical to the
// original run (see TestReplayFidelity); under a different machine or
// policy the dispatch order is held as close to the recording as the
// divergent blocking pattern allows (see sched.Recorded).
package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
)

// Meta identifies what a recording captured.
type Meta struct {
	Workload string
	Policy   string
	Workers  int
	Tasks    int
	// Faults is the fault schedule's spec string ("" for a fault-free
	// run). Replay reconstructs the schedule from it, so a recorded
	// faulty run replays under the same injected faults.
	Faults string
}

// Recording is one recorded run: identifying metadata plus the full
// event and dispatch log.
type Recording struct {
	Meta  Meta
	Trace *trace.Trace
}

// Record runs the graph under the configuration with recording enabled
// and returns the run's result together with its recording. A trace
// already set on the configuration is Reset and reused as the recording
// buffer — the allocation-free path for callers recording many runs
// back to back; when none is set a fresh one is allocated.
func Record(g *task.Graph, cfg core.Config) (core.Result, *Recording, error) {
	tr := cfg.Trace
	if tr == nil {
		tr = &trace.Trace{}
	} else {
		tr.Reset()
	}
	cfg.Trace = tr
	res, err := core.Run(g, cfg)
	if err != nil {
		return core.Result{}, nil, err
	}
	rec := &Recording{
		Meta: Meta{
			Workload: g.Name,
			Policy:   cfg.Policy.String(),
			Workers:  cfg.Workers,
			Tasks:    len(g.Tasks),
		},
		Trace: tr,
	}
	if cfg.Faults != nil {
		rec.Meta.Faults = cfg.Faults.Spec
	}
	return res, rec, nil
}

// Order returns the recorded pop sequence.
func (rec *Recording) Order() []task.TaskID {
	order := make([]task.TaskID, len(rec.Trace.Dispatches))
	for i, d := range rec.Trace.Dispatches {
		order[i] = d.Task
	}
	return order
}

// Validate reports what would make a replay meaningless: workers outside
// [1, core.MaxWorkers], no dispatch records, fewer dispatches than
// tasks, or a dispatch of a task outside [0, Meta.Tasks).
func (rec *Recording) Validate() error {
	if rec.Meta.Workers < 1 || rec.Meta.Workers > core.MaxWorkers {
		return fmt.Errorf("replay: recording names %d workers, want 1 to %d", rec.Meta.Workers, core.MaxWorkers)
	}
	if rec.Trace == nil {
		return fmt.Errorf("replay: recording has no trace")
	}
	if len(rec.Trace.Dispatches) == 0 {
		return fmt.Errorf("replay: recording has no dispatch records (recorded before dispatch recording existed?)")
	}
	if len(rec.Trace.Dispatches) < rec.Meta.Tasks {
		return fmt.Errorf("replay: %d dispatch records for %d tasks", len(rec.Trace.Dispatches), rec.Meta.Tasks)
	}
	for i, d := range rec.Trace.Dispatches {
		if d.Task < 0 || int(d.Task) >= rec.Meta.Tasks {
			return fmt.Errorf("replay: dispatch %d names task %d, outside [0, %d)", i, d.Task, rec.Meta.Tasks)
		}
	}
	return nil
}

// Replay re-runs the recorded schedule through the runtime under the
// given configuration — which may vary the machine, policy, or any
// technique — with queue pops pinned to the recording. The graph must be
// the one the recording was made from. A zero cfg.Workers inherits the
// recording's worker count; replaying with a different worker count is
// allowed but no longer pins the worker assignment, only the pop order.
func Replay(g *task.Graph, cfg core.Config, rec *Recording) (core.Result, error) {
	if err := rec.Validate(); err != nil {
		return core.Result{}, err
	}
	if len(g.Tasks) != rec.Meta.Tasks {
		return core.Result{}, fmt.Errorf("replay: graph has %d tasks, recording %d — wrong graph?", len(g.Tasks), rec.Meta.Tasks)
	}
	if cfg.Workers == 0 {
		cfg.Workers = rec.Meta.Workers
	}
	if cfg.Faults == nil && rec.Meta.Faults != "" {
		fs, err := fault.ParseSpec(rec.Meta.Faults)
		if err != nil {
			return core.Result{}, fmt.Errorf("replay: recorded fault spec: %w", err)
		}
		cfg.Faults = fs
	}
	order := rec.Order()
	cfg.NewQueue = func(workers int, started func(task.TaskID) bool) sched.Queue {
		return sched.NewRecorded(order, started)
	}
	return core.Run(g, cfg)
}

// metaRec is the fixed-field JSONL header line of a saved recording.
type metaRec struct {
	K        string `json:"k"` // always "meta"
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Workers  int    `json:"workers"`
	Tasks    int    `json:"tasks"`
	Faults   string `json:"faults,omitempty"`
}

const metaKind = "meta"

// Save writes the recording as JSONL: one meta header line, then the
// trace's events and dispatch records. Save(Load(x)) is byte-identical
// to x.
func (rec *Recording) Save(w io.Writer) error {
	b, err := json.Marshal(metaRec{
		K: metaKind, Workload: rec.Meta.Workload, Policy: rec.Meta.Policy,
		Workers: rec.Meta.Workers, Tasks: rec.Meta.Tasks,
		Faults: rec.Meta.Faults,
	})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	return rec.Trace.WriteJSONL(w)
}

// Load parses a recording written by Save.
func Load(r io.Reader) (*Recording, error) {
	br := bufio.NewReader(r)
	head, err := br.ReadString('\n')
	if err != nil && (err != io.EOF || strings.TrimSpace(head) == "") {
		return nil, fmt.Errorf("replay: reading header: %w", err)
	}
	var m metaRec
	if err := json.Unmarshal([]byte(head), &m); err != nil {
		return nil, fmt.Errorf("replay: parsing header: %w", err)
	}
	if m.K != metaKind {
		return nil, fmt.Errorf("replay: first line is %q, want a %q record", m.K, metaKind)
	}
	// A blank line stands in for the header, which ReadJSONL skips, so
	// its errors count the file's lines.
	tr, err := trace.ReadJSONL(io.MultiReader(strings.NewReader("\n"), br))
	if err != nil {
		return nil, err
	}
	return &Recording{
		Meta:  Meta{Workload: m.Workload, Policy: m.Policy, Workers: m.Workers, Tasks: m.Tasks, Faults: m.Faults},
		Trace: tr,
	}, nil
}
