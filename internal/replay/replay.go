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
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/wire"
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

	// faults memoizes the schedule a fault spec parsed to, so replaying
	// a recording again does not parse Meta.Faults again.
	faults atomic.Pointer[parsedFaults]
}

// parsedFaults is a fault spec and the schedule it parsed to.
type parsedFaults struct {
	spec  string
	sched *fault.Schedule
}

// faultSchedule returns the schedule Meta.Faults parses to. It parses
// only when the memo holds none, or one of a spec Meta.Faults no longer
// is.
func (rec *Recording) faultSchedule() (*fault.Schedule, error) {
	if p := rec.faults.Load(); p != nil && p.spec == rec.Meta.Faults {
		return p.sched, nil
	}
	fs, err := fault.ParseSpec(rec.Meta.Faults)
	if err != nil {
		return nil, err
	}
	rec.faults.Store(&parsedFaults{spec: rec.Meta.Faults, sched: fs})
	return fs, nil
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
		fs, err := rec.faultSchedule()
		if err != nil {
			return core.Result{}, fmt.Errorf("replay: recorded fault spec: %w", err)
		}
		cfg.Faults = fs
	}
	order := rec.Order()
	cfg.NewQueue = func(workers int, started func(task.TaskID) bool) sched.Queue {
		return sched.NewRecorded(order, len(g.Tasks), started)
	}
	return core.Run(g, cfg)
}

const metaKind = "meta"

// Save writes the recording as JSONL: one meta header line, then the
// trace's events and dispatch records, the header in the first Write
// with the first records. Save(Load(x)) is byte-identical to x.
func (rec *Recording) Save(w io.Writer) error {
	var head [256]byte
	return rec.Trace.WriteJSONLAfter(w, rec.Meta.appendLine(head[:0]))
}

// appendLine appends m's header line: the bytes json.Marshal writes for
// the header record and a newline. Its fields are k (always "meta"),
// workload, policy, workers, tasks, and faults when it is not empty.
func (m *Meta) appendLine(b []byte) []byte {
	b = wire.AppendString(append(b, `{"k":"`+metaKind+`","workload":`...), m.Workload)
	b = wire.AppendString(append(b, `,"policy":`...), m.Policy)
	b = strconv.AppendInt(append(b, `,"workers":`...), int64(m.Workers), 10)
	b = strconv.AppendInt(append(b, `,"tasks":`...), int64(m.Tasks), 10)
	if m.Faults != "" {
		b = wire.AppendString(append(b, `,"faults":`...), m.Faults)
	}
	return append(b, "}\n"...)
}

// parseMeta decodes a header line. It accepts what encoding/json
// decodes into the header record, less unknown, duplicate and
// case-folded keys, null and anything after the object.
func parseMeta(line []byte) (Meta, error) {
	var (
		m    Meta
		kind []byte
		l    wire.Lexer
	)
	str := func(p *string) error {
		b, err := l.Str()
		*p = string(b)
		return err
	}
	l.Reset(line)
	l.Space()
	err := l.Object(func(key []byte) (uint32, error) {
		switch string(key) {
		case "k":
			var err error
			kind, err = l.Str()
			return 1 << 0, err
		case "workload":
			return 1 << 1, str(&m.Workload)
		case "policy":
			return 1 << 2, str(&m.Policy)
		case "workers":
			return 1 << 3, wire.Int(&l, &m.Workers)
		case "tasks":
			return 1 << 4, wire.Int(&l, &m.Tasks)
		case "faults":
			return 1 << 5, str(&m.Faults)
		}
		return 0, nil
	})
	if l.Space(); err == nil && l.I != len(l.B) {
		err = l.Syntax("the end of the line")
	}
	if err != nil {
		return Meta{}, fmt.Errorf("replay: parsing header: %w", err)
	}
	if string(kind) != metaKind {
		return Meta{}, fmt.Errorf("replay: first line is %q, want a %q record", kind, metaKind)
	}
	return m, nil
}

// Load parses a recording written by Save. It reads r to its end into
// one pooled buffer and decodes the lines in place; the Recording keeps
// nothing of the buffer. Error line numbers count the header.
func Load(r io.Reader) (*Recording, error) {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	in, rerr := wire.ReadAll(r, bp)
	head, rest, found := bytes.Cut(in, []byte{'\n'})
	if !found {
		if rerr == nil && len(bytes.TrimSpace(head)) == 0 {
			rerr = io.EOF
		}
		if rerr != nil {
			return nil, fmt.Errorf("replay: reading header: %w", rerr)
		}
	}
	m, err := parseMeta(head)
	if err != nil {
		return nil, err
	}
	tr, err := trace.DecodeJSONL(rest, 1, m.Tasks)
	if err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	return &Recording{Meta: m, Trace: tr}, nil
}
