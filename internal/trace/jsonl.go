package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

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

// WriteJSONL writes the full recording — events in log order, then
// dispatch records in decision order — one JSON object per line. A
// non-finite event time is an error.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bp := wire.GetBuf()
	b := *bp
	defer func() {
		*bp = b
		wire.PutBuf(bp)
	}()
	var memo timeMemo
	n := len(t.Events) + len(t.Dispatches)
	for i := 0; i < n; i++ {
		var err error
		if i < len(t.Events) {
			e := &t.Events[i]
			b, err = appendRec(b, &memo, e.Kind.String(), e)
		} else {
			d := &t.Dispatches[i-len(t.Events)]
			b, err = appendRec(b, &memo, dispatchKind, &Event{Time: d.Time, Task: d.Task, Worker: d.Worker, OK: true})
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

// timeMemo holds the last time appendRec rendered, as its bits and its
// wire bytes. Consecutive records often share a time, and copying its
// bytes is cheaper than formatting it again.
type timeMemo struct {
	bits uint64
	n    int // the length of the rendered time in b; 0 before the first
	b    [32]byte
}

// appendTime appends x's wire bytes.
func (m *timeMemo) appendTime(b []byte, x float64) []byte {
	bits := math.Float64bits(x)
	if m.n > 0 && bits == m.bits {
		return append(b, m.b[:m.n]...)
	}
	start := len(b)
	b = wire.AppendFloat(b, x)
	if len(b)-start <= len(m.b) { // a float64 renders in at most 24 bytes
		m.bits, m.n = bits, copy(m.b[:], b[start:])
	}
	return b
}

// appendRec appends e's wire line under kind name k.
func appendRec(b []byte, memo *timeMemo, k string, e *Event) ([]byte, error) {
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		return b, fmt.Errorf("trace: unsupported time %v in a %s record", e.Time, k)
	}
	b = memo.appendTime(append(b, `{"t":`...), e.Time)
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
// accepts decodes exactly as encoding/json would decode it. ReadJSONL
// reads rd to its end before decoding.
func ReadJSONL(rd io.Reader) (*Trace, error) {
	in, rerr := wire.ReadAll(rd)
	t, err := DecodeJSONL(in, 0, 0)
	if err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// maxLine is the longest line, in bytes before its '\n', that the reader
// accepts; a longer one fails the read with bufio.ErrTooLong.
const maxLine = 1<<20 - 1

// minRecord is the length of the shortest line the reader accepts as a
// record, {"k":"plan"}.
const minRecord = 12

// DecodeJSONL decodes b, the lines of a recording as ReadJSONL reads
// them, in place; the Trace it returns holds nothing of b. Errors count
// lines from first+1, so a caller that has consumed first lines of a
// file before b names the file's lines. dispatches is the expected
// number of dispatch records: clamped to the records b can hold, it
// sizes the dispatch table, and the rest size the event table, so no
// hint makes DecodeJSONL allocate beyond what b holds, and a wrong one
// costs a regrowth. A table that receives no record stays nil.
func DecodeJSONL(b []byte, first, dispatches int) (*Trace, error) {
	lines := bytes.Count(b, []byte{'\n'})
	if len(b) > 0 && b[len(b)-1] != '\n' {
		lines++
	}
	lines = min(lines, (len(b)+1)/(minRecord+1))
	dispatches = min(max(dispatches, 0), lines)
	d := decoder{names: map[string]string{}, events: lines - dispatches, dispatches: dispatches}
	t := &Trace{}
	for line := first + 1; len(b) > 0; line++ {
		raw := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			raw, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if len(raw) > maxLine {
			return nil, bufio.ErrTooLong
		}
		if n := len(raw); n > 0 && raw[n-1] == '\r' {
			raw = raw[:n-1]
		}
		if err := d.line(t, raw); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
	}
	return t, nil
}

// decoder parses one line at a time, in place. It interns the task kinds
// and labels it decodes, which repeat across lines, and remembers the
// last time token it parsed, which often repeats on the next line.
type decoder struct {
	wire.Lexer
	names map[string]string
	// events and dispatches size the tables at their first record.
	events, dispatches int
	// tTok is the last time token parsed (a slice of the input) and tVal
	// its value; tTok is nil before the first.
	tTok []byte
	tVal float64
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
			bit, err = 1<<0, d.time(&e.Time)
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
		if t.Dispatches == nil {
			t.Dispatches = make([]Dispatch, 0, d.dispatches)
		}
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
	if t.Events == nil {
		t.Events = make([]Event, 0, d.events)
	}
	t.Add(e)
	return nil
}

// time decodes a JSON number as Float does, reusing the last token's
// value when the token repeats it byte for byte. Only a token that
// parsed is remembered, so a repeated out-of-range time fails each time.
func (d *decoder) time(p *float64) error {
	tok, err := d.Number()
	if err != nil {
		return err
	}
	if d.tTok != nil && bytes.Equal(tok, d.tTok) {
		*p = d.tVal
		return nil
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return err
	}
	d.tTok, d.tVal, *p = tok, v, v
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
