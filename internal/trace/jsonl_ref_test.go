package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/mem"
	"repro/internal/task"
)

// The encoding/json codec the hand-written one replaced, kept as the
// reference its tests compare against: RefWriteJSONL fixes the wire
// bytes, and RefReadJSONL decodes every line ReadJSONL accepts to the
// same Trace (it also accepts lines ReadJSONL rejects: unknown or
// duplicate keys, null, case-folded keys, tier aliases).

// refRec is the fixed-field wire record; encoding/json renders its
// fields in declaration order and omits the zero-valued ones.
type refRec struct {
	T     float64 `json:"t"`
	K     string  `json:"k"`
	Task  int     `json:"task,omitempty"`
	TKind string  `json:"tkind,omitempty"`
	W     int     `json:"w,omitempty"`
	Obj   int     `json:"obj,omitempty"`
	Chunk int     `json:"chunk,omitempty"`
	To    string  `json:"to,omitempty"`
	Bytes int64   `json:"bytes,omitempty"`
	Fail  bool    `json:"fail,omitempty"`
	Label string  `json:"label,omitempty"`
}

func refParseTier(s string) (mem.Tier, error) {
	switch s {
	case mem.InDRAM.String():
		return mem.InDRAM, nil
	case mem.InNVM.String():
		return mem.InNVM, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "T%d", &n); err == nil && n >= 0 && n < mem.MaxTiers {
		return mem.Tier(n), nil
	}
	return 0, fmt.Errorf("trace: unknown tier %q", s)
}

// refName resolves n through t's name table, failing on a Name past its
// end.
func refName(t *Trace, n Name) (string, error) {
	if int(n) > len(t.names) {
		return "", fmt.Errorf("trace: name %d outside a table of %d", n, len(t.names))
	}
	return t.Name(n), nil
}

// RefWriteJSONL writes t through encoding/json, each event's names
// resolved through t's table.
func RefWriteJSONL(t *Trace, w io.Writer) error {
	enc := json.NewEncoder(w)
	emit := func(r refRec) error { return enc.Encode(&r) }
	for _, e := range t.Events {
		r := refRec{
			T: e.Time, K: e.Kind.String(),
			Task: int(e.Task), W: e.Worker,
			Obj: int(e.Obj), Chunk: e.Chunk, Bytes: e.Bytes,
			Fail: !e.OK,
		}
		var err error
		if r.TKind, err = refName(t, e.TaskKind); err != nil {
			return err
		}
		if r.Label, err = refName(t, e.Label); err != nil {
			return err
		}
		switch e.Kind {
		case MigrationStart, MigrationEnd, MigrationRetry, FaultInject, TierQuarantine, TierReadmit:
			r.To = e.To.String()
		}
		if err := emit(r); err != nil {
			return err
		}
	}
	for _, d := range t.Dispatches {
		if err := emit(refRec{T: d.Time, K: dispatchKind, Task: int(d.Task), W: d.Worker}); err != nil {
			return err
		}
	}
	return nil
}

// RefReadJSONL reads JSONL through encoding/json. Each event's task kind
// and then its label go into the trace's name table through Intern.
func RefReadJSONL(rd io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var r refRec
		if err := json.Unmarshal([]byte(raw), &r); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if r.K == dispatchKind {
			t.AddDispatch(Dispatch{Time: r.T, Task: task.TaskID(r.Task), Worker: r.W})
			continue
		}
		k, err := ParseKind(r.K)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		e := Event{
			Time: r.T, Kind: k,
			Task: task.TaskID(r.Task), Worker: r.W,
			Obj: task.ObjectID(r.Obj), Chunk: r.Chunk, Bytes: r.Bytes,
			OK: !r.Fail,
		}
		if r.To != "" {
			if e.To, err = refParseTier(r.To); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
		}
		if e.TaskKind, err = t.Intern(r.TKind); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if e.Label, err = t.Intern(r.Label); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Add(e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// scanReadJSONL is ReadJSONL as it framed lines before it read whole
// inputs into one buffer: a bufio.Scanner with a 1 MiB limit, each line
// decoded with the time memo off. FuzzReadJSONL and the line-limit test
// hold the framing and the memo to it.
func scanReadJSONL(rd io.Reader) (*Trace, error) {
	t := &Trace{}
	var d decoder
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		d.tTok = nil
		if err := d.line(t, sc.Bytes()); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
