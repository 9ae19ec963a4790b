// Package trace records what happened during a simulated run — task
// executions, migrations, placement decisions — and computes the derived
// views the evaluation's analysis needs: per-kind duration statistics,
// device-residency timelines, migration timing, and a text timeline
// renderer. The runtime emits events through the Recorder interface; a
// nil recorder costs nothing.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/task"
)

// Kind tags an event.
type Kind uint8

const (
	// TaskStart and TaskEnd bracket one task execution.
	TaskStart Kind = iota
	TaskEnd
	// MigrationStart and MigrationEnd bracket one helper-thread copy.
	MigrationStart
	MigrationEnd
	// Plan marks a placement decision.
	Plan
	// FaultInject marks a fault-schedule boundary: OK=true when the fault
	// goes live, OK=false at its recovery point. Label names the fault
	// kind, To the affected tier.
	FaultInject
	// MigrationRetry marks a resilience decision on a transiently failed
	// copy: OK=true re-queued for retry, OK=false abandoned.
	MigrationRetry
	// TierQuarantine and TierReadmit bracket a window in which the runtime
	// stopped targeting tier To after a fault burst.
	TierQuarantine
	TierReadmit
)

// kindNames names each event kind; the JSONL wire form uses these names.
var kindNames = [...]string{
	TaskStart:      "task-start",
	TaskEnd:        "task-end",
	MigrationStart: "mig-start",
	MigrationEnd:   "mig-end",
	Plan:           "plan",
	FaultInject:    "fault",
	MigrationRetry: "mig-retry",
	TierQuarantine: "quarantine",
	TierReadmit:    "readmit",
}

// String names the event kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	if k := index(kindNames[:], []byte(s)); k >= 0 {
		return Kind(k), nil
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// Name stands for a string in its trace's name table (Trace.Name): the
// zero Name for the empty string, Name n > 0 for the table's nth entry.
// Events carry their task kind and label as Names, so an Event holds no
// pointer and the many events of a run repeat a few strings for free.
type Name uint16

// MaxNames is the most distinct names one trace's table holds.
const MaxNames = 1<<16 - 1

// Event is one timeline entry. It holds no pointer and takes 64 bytes.
type Event struct {
	Time float64
	Kind Kind
	// OK reports the event's outcome: false only for a MigrationEnd whose
	// movement did not happen (a promotion dropped or failed for lack of
	// DRAM room — the data stayed put). A dropped promotion appears as a
	// lone MigrationEnd with OK=false and no matching MigrationStart.
	OK bool
	// TaskKind names a task event's task kind; Label names a Plan event's
	// plan kind and a FaultInject event's fault kind.
	TaskKind Name
	Label    Name
	// Task fields (TaskStart/TaskEnd).
	Task   task.TaskID
	Worker int
	// Migration fields (MigrationStart/MigrationEnd).
	Obj   task.ObjectID
	Chunk int
	To    mem.Tier
	Bytes int64
}

// Dispatch is one scheduler decision: the runtime handed task Task to
// worker Worker at Time. Unlike TaskStart, a dispatch whose task finds
// its data mid-migration blocks instead of starting (and is dispatched
// again later), so the dispatch sequence — not the start sequence — is
// the scheduler's complete decision record, and is what a replayer must
// pin to isolate placement effects from scheduling.
type Dispatch struct {
	Time   float64
	Task   task.TaskID
	Worker int
}

// Trace is an in-memory event log. The zero value is ready to use.
type Trace struct {
	Events []Event
	// Dispatches records the scheduler's decisions in order; together
	// with Events it forms a complete, replayable run recording.
	Dispatches []Dispatch

	// names is the name table: names[n-1] is the string Name n stands
	// for, each distinct and not empty. index maps each to its Name once
	// the table is too long to search.
	names []string
	index map[string]Name
}

// Add appends one event.
func (t *Trace) Add(e Event) { t.Events = append(t.Events, e) }

// AddDispatch appends one scheduler decision.
func (t *Trace) AddDispatch(d Dispatch) { t.Dispatches = append(t.Dispatches, d) }

// Name returns the string n stands for: "" for the zero Name and for a
// Name past the end of t's table.
func (t *Trace) Name(n Name) string {
	if n == 0 || int(n) > len(t.names) {
		return ""
	}
	return t.names[n-1]
}

// Intern returns the Name of s in t's table, adding s when it is not
// there yet. The empty string is the zero Name. It fails when s is new
// and the table already holds MaxNames names.
func (t *Trace) Intern(s string) (Name, error) {
	n, err := intern(t, s)
	if err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	return n, nil
}

// NameRoom returns how many more distinct names t's table can take.
func (t *Trace) NameRoom() int { return MaxNames - len(t.names) }

// scanNames is the longest table intern searches entry by entry; a
// longer one gets an index.
const scanNames = 32

// intern is Intern for a string or the bytes of one, which it copies
// only to add them.
func intern[S string | []byte](t *Trace, s S) (Name, error) {
	if len(s) == 0 {
		return 0, nil
	}
	if t.index != nil {
		if n, ok := t.index[string(s)]; ok {
			return n, nil
		}
	} else {
		for i, name := range t.names {
			if name == string(s) {
				return Name(i + 1), nil
			}
		}
	}
	if len(t.names) == MaxNames {
		return 0, fmt.Errorf("more than %d distinct names", MaxNames)
	}
	if cap(t.names) == 0 {
		t.names = make([]string, 0, 16) // most runs name fewer
	}
	t.names = append(t.names, string(s))
	n := Name(len(t.names))
	if t.index != nil {
		t.index[t.names[n-1]] = n
	} else if len(t.names) > scanNames {
		t.index = make(map[string]Name, 2*len(t.names))
		for i, name := range t.names {
			t.index[name] = Name(i + 1)
		}
	}
	return n, nil
}

// Grow ensures room for at least events more events and dispatches more
// dispatch records without further allocation. Recorders that know the
// workload's size (the runtime does: every task contributes a bounded
// number of records) call it once up front so Add never reallocates.
func (t *Trace) Grow(events, dispatches int) {
	if need := len(t.Events) + events; need > cap(t.Events) {
		grown := make([]Event, len(t.Events), need)
		copy(grown, t.Events)
		t.Events = grown
	}
	if need := len(t.Dispatches) + dispatches; need > cap(t.Dispatches) {
		grown := make([]Dispatch, len(t.Dispatches), need)
		copy(grown, t.Dispatches)
		t.Dispatches = grown
	}
}

// Reset empties the trace and its name table but keeps the buffers, so a
// caller recording many runs back to back (replay verification, the
// chaos suite) reuses one Trace with zero steady-state allocation.
func (t *Trace) Reset() {
	t.Events = t.Events[:0]
	t.Dispatches = t.Dispatches[:0]
	clear(t.names)
	t.names, t.index = t.names[:0], nil
}

// Footprint returns the bytes t's buffers hold.
func (t *Trace) Footprint() int {
	return cap(t.Events)*int(unsafe.Sizeof(Event{})) + cap(t.Dispatches)*int(unsafe.Sizeof(Dispatch{})) +
		cap(t.names)*int(unsafe.Sizeof(""))
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.Events) }

// Duration returns the time of the last event.
func (t *Trace) Duration() float64 {
	if len(t.Events) == 0 {
		return 0
	}
	last := 0.0
	for _, e := range t.Events {
		if e.Time > last {
			last = e.Time
		}
	}
	return last
}

// KindStats summarizes the executions of one task kind.
type KindStats struct {
	Kind  string
	Count int
	Total float64
	Min   float64
	Max   float64
}

// Mean returns the mean duration.
func (k KindStats) Mean() float64 {
	if k.Count == 0 {
		return 0
	}
	return k.Total / float64(k.Count)
}

// ByKind aggregates task durations per kind, pairing starts with ends.
func (t *Trace) ByKind() []KindStats {
	open := map[task.TaskID]float64{}
	agg := map[string]*KindStats{}
	for _, e := range t.Events {
		switch e.Kind {
		case TaskStart:
			open[e.Task] = e.Time
		case TaskEnd:
			start, ok := open[e.Task]
			if !ok {
				continue
			}
			delete(open, e.Task)
			d := e.Time - start
			kind := t.Name(e.TaskKind)
			s := agg[kind]
			if s == nil {
				s = &KindStats{Kind: kind, Min: d, Max: d}
				agg[kind] = s
			}
			s.Count++
			s.Total += d
			if d < s.Min {
				s.Min = d
			}
			if d > s.Max {
				s.Max = d
			}
		}
	}
	out := make([]KindStats, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// MigrationRecord is one migration decision. OK=false means the
// movement did not happen: either the copy ran and found no DRAM room
// at completion time, or the request was dropped before starting (then
// Start == End and no copy channel time was consumed).
type MigrationRecord struct {
	Start, End float64
	Obj        task.ObjectID
	Chunk      int
	To         mem.Tier
	Bytes      int64
	OK         bool
}

// Migrations pairs migration starts with ends, in completion order. A
// MigrationEnd with OK=false and no open MigrationStart is a dropped
// request and becomes a zero-duration failed record; an unmatched end
// with OK=true is corrupt input and is ignored.
func (t *Trace) Migrations() []MigrationRecord {
	type key struct {
		obj   task.ObjectID
		chunk int
	}
	open := map[key][]Event{}
	var out []MigrationRecord
	for _, e := range t.Events {
		k := key{e.Obj, e.Chunk}
		switch e.Kind {
		case MigrationStart:
			open[k] = append(open[k], e)
		case MigrationEnd:
			q := open[k]
			if len(q) == 0 {
				if !e.OK {
					out = append(out, MigrationRecord{
						Start: e.Time, End: e.Time,
						Obj: e.Obj, Chunk: e.Chunk, To: e.To, Bytes: e.Bytes,
					})
				}
				continue
			}
			s := q[0]
			open[k] = q[1:]
			out = append(out, MigrationRecord{
				Start: s.Time, End: e.Time,
				Obj: e.Obj, Chunk: e.Chunk, To: e.To, Bytes: e.Bytes, OK: e.OK,
			})
		}
	}
	return out
}

// MigrationStats aggregates the migration records: successful copies
// move bytes and occupy the copy channel; failed ones only record that
// a decision was made and did not stick.
type MigrationStats struct {
	Count      int // successful migrations
	Failed     int // failed or dropped migrations
	BytesMoved int64
	CopySec    float64
}

// MigrationStats summarizes Migrations().
func (t *Trace) MigrationStats() MigrationStats {
	var s MigrationStats
	for _, m := range t.Migrations() {
		if !m.OK {
			s.Failed++
			continue
		}
		s.Count++
		s.BytesMoved += m.Bytes
		s.CopySec += m.End - m.Start
	}
	return s
}

// Concurrency samples how many tasks ran at once: it returns the
// time-weighted mean and the peak.
func (t *Trace) Concurrency() (mean float64, peak int) {
	type edge struct {
		at    float64
		delta int
	}
	var edges []edge
	for _, e := range t.Events {
		switch e.Kind {
		case TaskStart:
			edges = append(edges, edge{e.Time, +1})
		case TaskEnd:
			edges = append(edges, edge{e.Time, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	cur, last := 0, 0.0
	var area, end float64
	for _, ed := range edges {
		area += float64(cur) * (ed.at - last)
		last = ed.at
		cur += ed.delta
		if cur > peak {
			peak = cur
		}
		end = ed.at
	}
	if end > 0 {
		mean = area / end
	}
	return mean, peak
}

// WriteCSV dumps the raw event log. CSV is a lossy export for
// spreadsheet analysis (it drops dispatch records); JSONL is the
// canonical round-trippable form.
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time,kind,task,taskKind,worker,obj,chunk,to,bytes,ok,label"); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(w, "%.9f,%s,%d,%s,%d,%d,%d,%s,%d,%t,%s\n",
			e.Time, e.Kind, e.Task, t.Name(e.TaskKind), e.Worker, e.Obj, e.Chunk, e.To, e.Bytes, e.OK, t.Name(e.Label)); err != nil {
			return err
		}
	}
	return nil
}

// Timeline renders a coarse per-worker text gantt with the given number
// of columns; '#' marks task execution, '.' idle, and the bottom row
// marks successful migrations with 'm' and failed ones with 'x'.
func (t *Trace) Timeline(w io.Writer, workers, cols int) error {
	dur := t.Duration()
	if dur <= 0 || cols <= 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	cell := dur / float64(cols)
	rows := make([][]byte, workers+1)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", cols))
	}
	mark := func(row int, from, to float64, ch byte) {
		lo := int(from / cell)
		hi := int(to / cell)
		if hi >= cols {
			hi = cols - 1
		}
		for c := lo; c <= hi; c++ {
			rows[row][c] = ch
		}
	}
	open := map[task.TaskID]Event{}
	for _, e := range t.Events {
		switch e.Kind {
		case TaskStart:
			open[e.Task] = e
		case TaskEnd:
			s, ok := open[e.Task]
			if ok && s.Worker >= 0 && s.Worker < workers {
				mark(s.Worker, s.Time, e.Time, '#')
			}
			delete(open, e.Task)
		}
	}
	for _, m := range t.Migrations() {
		ch := byte('m')
		if !m.OK {
			ch = 'x'
		}
		mark(workers, m.Start, m.End, ch)
	}
	for i, row := range rows {
		label := fmt.Sprintf("w%-2d", i)
		if i == workers {
			label = "mig"
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", label, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "      0%*s%.4fs\n", cols-6, "", dur)
	return err
}
