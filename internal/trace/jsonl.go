package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/mem"
	"repro/internal/wire"
)

// The JSONL wire form is specified in DESIGN.md "Recording format". The
// writer emits exactly the bytes encoding/json emitted for the same
// record, so saved recordings and trace digests stay stable;
// jsonl_ref_test.go keeps that codec as the reference.

const dispatchKind = "dispatch"

// hasTier reports whether events of kind k carry a tier on the wire.
func (k Kind) hasTier() bool {
	switch k {
	case MigrationStart, MigrationEnd, MigrationRetry, FaultInject, TierQuarantine, TierReadmit:
		return true
	}
	return false
}

// tierNames holds mem.Tier(n).String() for every valid tier: the only
// tier names the reader accepts, precomputed so the writer formats none.
var tierNames = func() (names [mem.MaxTiers]string) {
	for t := range names {
		names[t] = mem.Tier(t).String()
	}
	return names
}()

// flushAt is the buffered size at which WriteJSONL hands its lines to the
// writer. The line buffer is pooled and so stays alive between calls;
// keeping it small keeps the live heap small.
const flushAt = 4 << 10

var lineBufs = sync.Pool{New: func() any { b := make([]byte, 0, 2*flushAt); return &b }}

// WriteJSONL writes the full recording — events in log order, then
// dispatch records in decision order — one JSON object per line. A
// non-finite event time is an error.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bp := lineBufs.Get().(*[]byte)
	b := (*bp)[:0]
	defer func() {
		*bp = b[:0]
		lineBufs.Put(bp)
	}()
	n := len(t.Events) + len(t.Dispatches)
	for i := 0; i < n; i++ {
		var err error
		if i < len(t.Events) {
			e := &t.Events[i]
			b, err = appendRec(b, e.Kind.String(), e)
		} else {
			d := &t.Dispatches[i-len(t.Events)]
			b, err = appendRec(b, dispatchKind, &Event{Time: d.Time, Task: d.Task, Worker: d.Worker, OK: true})
		}
		if err != nil {
			return err
		}
		if len(b) >= flushAt || i == n-1 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	return nil
}

// appendRec appends e's wire line under kind name k.
func appendRec(b []byte, k string, e *Event) ([]byte, error) {
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		return b, fmt.Errorf("trace: unsupported time %v in a %s record", e.Time, k)
	}
	b = wire.AppendFloat(append(b, `{"t":`...), e.Time)
	b = wire.AppendString(append(b, `,"k":`...), k)
	b = appendInt(b, `,"task":`, int64(e.Task))
	if e.TaskKind != "" {
		b = wire.AppendString(append(b, `,"tkind":`...), e.TaskKind)
	}
	b = appendInt(b, `,"w":`, int64(e.Worker))
	b = appendInt(b, `,"obj":`, int64(e.Obj))
	b = appendInt(b, `,"chunk":`, int64(e.Chunk))
	if e.Kind.hasTier() {
		name := e.To.String()
		if e.To >= 0 && int(e.To) < len(tierNames) {
			name = tierNames[e.To]
		}
		b = wire.AppendString(append(b, `,"to":`...), name)
	}
	b = appendInt(b, `,"bytes":`, e.Bytes)
	if !e.OK {
		b = append(b, `,"fail":true`...)
	}
	if e.Label != "" {
		b = wire.AppendString(append(b, `,"label":`...), e.Label)
	}
	return append(b, "}\n"...), nil
}

// appendInt appends key and n, or nothing when n is zero.
func appendInt(b []byte, key string, n int64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}

// ReadJSONL parses a recording written by WriteJSONL. Lines holding only
// JSON whitespace are skipped. Every other line must be one flat object
// whose keys are wire fields, each at most once, with a value of the
// field's type (no null, no nested value, integers without fraction or
// exponent and in range) and nothing after it; otherwise ReadJSONL fails
// naming the line, counted from 1 at rd's current position. A line it
// accepts decodes exactly as encoding/json would decode it.
func ReadJSONL(rd io.Reader) (*Trace, error) {
	t := &Trace{}
	d := decoder{names: map[string]string{}}
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, 1<<20) // starts at 4 KiB and grows to fit a line
	for line := 1; sc.Scan(); line++ {
		if err := d.line(t, sc.Bytes()); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// decoder parses one line at a time, in place. It interns the task kinds
// and labels it decodes, which repeat across lines.
type decoder struct {
	wire.Lexer
	names map[string]string
}

// line decodes one line into t: an event, a dispatch record, or nothing
// for a blank line.
func (d *decoder) line(t *Trace, line []byte) error {
	d.Reset(line)
	if d.Space(); d.I == len(d.B) {
		return nil
	}
	if !d.Eat('{') {
		return d.Syntax("'{'")
	}
	var (
		e        Event
		kind, to []byte
		fail     bool
		seen     uint
	)
	for d.Space(); !d.Eat('}'); d.Space() {
		if seen != 0 && !d.Eat(',') {
			return d.Syntax("',' or '}'")
		}
		d.Space()
		key, err := d.Str()
		if err != nil {
			return err
		}
		if d.Space(); !d.Eat(':') {
			return d.Syntax("':'")
		}
		d.Space()
		var bit uint
		switch string(key) {
		case "t":
			bit, err = 1<<0, d.Float(&e.Time)
		case "k":
			bit, err = 1<<1, d.str(&kind)
		case "task":
			bit, err = 1<<2, wire.Int(&d.Lexer, &e.Task)
		case "tkind":
			bit, err = 1<<3, d.name(&e.TaskKind)
		case "w":
			bit, err = 1<<4, wire.Int(&d.Lexer, &e.Worker)
		case "obj":
			bit, err = 1<<5, wire.Int(&d.Lexer, &e.Obj)
		case "chunk":
			bit, err = 1<<6, wire.Int(&d.Lexer, &e.Chunk)
		case "to":
			bit, err = 1<<7, d.str(&to)
		case "bytes":
			bit, err = 1<<8, wire.Int(&d.Lexer, &e.Bytes)
		case "fail":
			bit, err = 1<<9, d.Bool(&fail)
		case "label":
			bit, err = 1<<10, d.name(&e.Label)
		default:
			return fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return fmt.Errorf("key %q: %w", key, err)
		}
		if seen&bit != 0 {
			return fmt.Errorf("duplicate key %q", key)
		}
		seen |= bit
	}
	if d.Space(); d.I != len(d.B) {
		return d.Syntax("the end of the line")
	}

	if string(kind) == dispatchKind {
		t.AddDispatch(Dispatch{Time: e.Time, Task: e.Task, Worker: e.Worker})
		return nil
	}
	k := index(kindNames[:], kind)
	if k < 0 {
		return fmt.Errorf("unknown event kind %q", kind)
	}
	e.Kind, e.OK = Kind(k), !fail
	if len(to) > 0 {
		n := index(tierNames[:], to)
		if n < 0 || !e.Kind.hasTier() {
			return fmt.Errorf("invalid tier %q on a %s event", to, e.Kind)
		}
		e.To = mem.Tier(n)
	}
	t.Add(e)
	return nil
}

// index returns the position of b in names, or -1.
func index(names []string, b []byte) int {
	for i, name := range names {
		if name == string(b) {
			return i
		}
	}
	return -1
}

// str decodes a string into *p, in place when it is plain ASCII.
func (d *decoder) str(p *[]byte) error {
	b, err := d.Str()
	*p = b
	return err
}

// name decodes a string and interns it.
func (d *decoder) name(p *string) error {
	b, err := d.Str()
	if err != nil {
		return err
	}
	s, ok := d.names[string(b)]
	if !ok {
		s = string(b)
		d.names[s] = s
	}
	*p = s
	return nil
}
