package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/mem"
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
	b = appendFloat(append(b, `{"t":`...), e.Time)
	b = appendString(append(b, `,"k":`...), k)
	b = appendInt(b, `,"task":`, int64(e.Task))
	if e.TaskKind != "" {
		b = appendString(append(b, `,"tkind":`...), e.TaskKind)
	}
	b = appendInt(b, `,"w":`, int64(e.Worker))
	b = appendInt(b, `,"obj":`, int64(e.Obj))
	b = appendInt(b, `,"chunk":`, int64(e.Chunk))
	if e.Kind.hasTier() {
		name := e.To.String()
		if e.To >= 0 && int(e.To) < len(tierNames) {
			name = tierNames[e.To]
		}
		b = appendString(append(b, `,"to":`...), name)
	}
	b = appendInt(b, `,"bytes":`, e.Bytes)
	if !e.OK {
		b = append(b, `,"fail":true`...)
	}
	if e.Label != "" {
		b = appendString(append(b, `,"label":`...), e.Label)
	}
	return append(b, "}\n"...), nil
}

// appendFloat renders x as encoding/json does: shortest round-trip
// digits, in 'f' form unless |x| < 1e-6 or |x| >= 1e21, and a negative
// exponent without its leading zero (1e-7, not 1e-07).
func appendFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendInt appends key and n, or nothing when n is zero.
func appendInt(b []byte, key string, n int64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}

// appendString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes (" and \, and <, > and & for HTML
// safety) is copied; any other string goes through json.Marshal, so
// escapes, U+2028/U+2029 and invalid UTF-8 render exactly as there.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
	b     []byte
	i     int
	names map[string]string
}

// line decodes one line into t: an event, a dispatch record, or nothing
// for a blank line.
func (d *decoder) line(t *Trace, line []byte) error {
	d.b, d.i = line, 0
	if d.space(); d.i == len(d.b) {
		return nil
	}
	if !d.eat('{') {
		return d.syntax("'{'")
	}
	var (
		e        Event
		kind, to []byte
		fail     bool
		seen     uint
	)
	for d.space(); !d.eat('}'); d.space() {
		if seen != 0 && !d.eat(',') {
			return d.syntax("',' or '}'")
		}
		d.space()
		var key []byte
		if err := d.str(&key); err != nil {
			return err
		}
		if d.space(); !d.eat(':') {
			return d.syntax("':'")
		}
		d.space()
		var bit uint
		var err error
		switch string(key) {
		case "t":
			bit, err = 1<<0, d.float(&e.Time)
		case "k":
			bit, err = 1<<1, d.str(&kind)
		case "task":
			bit, err = 1<<2, integer(d, &e.Task)
		case "tkind":
			bit, err = 1<<3, d.name(&e.TaskKind)
		case "w":
			bit, err = 1<<4, integer(d, &e.Worker)
		case "obj":
			bit, err = 1<<5, integer(d, &e.Obj)
		case "chunk":
			bit, err = 1<<6, integer(d, &e.Chunk)
		case "to":
			bit, err = 1<<7, d.str(&to)
		case "bytes":
			bit, err = 1<<8, integer(d, &e.Bytes)
		case "fail":
			bit, err = 1<<9, d.boolean(&fail)
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
	if d.space(); d.i != len(d.b) {
		return d.syntax("the end of the line")
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

func (d *decoder) syntax(want string) error {
	return fmt.Errorf("column %d: want %s", d.i+1, want)
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\r' || d.b[d.i] == '\n') {
		d.i++
	}
}

func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str decodes a JSON string into *p. Plain ASCII comes back in place, as
// a slice of the line; a string with escapes or other bytes goes through
// json.Unmarshal, so it decodes exactly as there.
func (d *decoder) str(p *[]byte) error {
	if !d.eat('"') {
		return d.syntax("a string")
	}
	start, plain := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if plain {
				*p = d.b[start : d.i-1]
				return nil
			}
			var s string
			if err := json.Unmarshal(d.b[start-1:d.i], &s); err != nil {
				return err
			}
			*p = []byte(s)
			return nil
		case c == '\\':
			plain = false
			d.i++ // skip the escaped byte, which may be '"'
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	return d.syntax(`a closing '"'`)
}

// name decodes a string and interns it.
func (d *decoder) name(p *string) error {
	var b []byte
	if err := d.str(&b); err != nil {
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

// number consumes a token of JSON number grammar and returns it.
func (d *decoder) number() ([]byte, error) {
	start := d.i
	d.eat('-')
	if !d.eat('0') && d.digits() == 0 {
		return nil, d.syntax("a number")
	}
	if d.eat('.') && d.digits() == 0 {
		return nil, d.syntax("a digit")
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			return nil, d.syntax("a digit")
		}
	}
	return d.b[start:d.i], nil
}

func (d *decoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

func (d *decoder) float(p *float64) error {
	tok, err := d.number()
	if err != nil {
		return err
	}
	*p, err = strconv.ParseFloat(string(tok), 64)
	return err
}

// integer decodes a JSON integer into *p. A fraction, an exponent or a
// value outside *p's range is an error, as it is for encoding/json.
func integer[T ~int | ~int64](d *decoder, p *T) error {
	tok, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(T(n)) != n {
		return fmt.Errorf("want an integer, got %s", tok)
	}
	*p = T(n)
	return nil
}

func (d *decoder) boolean(p *bool) error {
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*p, d.i = true, d.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*p, d.i = false, d.i+5
	default:
		return d.syntax("true or false")
	}
	return nil
}
