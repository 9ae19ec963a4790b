package trace

import (
	"bufio"
	"bytes"
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
// tier names the reader accepts.
var tierNames = func() (names [mem.MaxTiers]string) {
	for t := range names {
		names[t] = mem.Tier(t).String()
	}
	return names
}()

// kindTokens and tierTokens hold the wire bytes of each valid kind's
// "k" member and each valid tier's "to" member, so the writer formats
// neither.
var (
	kindTokens = tokens(`,"k":`, kindNames[:])
	tierTokens = tokens(`,"to":`, tierNames[:])
)

func tokens(key string, names []string) [][]byte {
	toks := make([][]byte, len(names))
	for i, name := range names {
		toks[i] = wire.AppendString([]byte(key), name)
	}
	return toks
}

// flushAt is the buffered size at which WriteJSONL hands its lines to the
// writer: most recordings reach it in one Write, so a growing
// destination such as a bytes.Buffer grows once.
const flushAt = 64 << 10

// WriteJSONL writes the full recording — events in log order, then
// dispatch records in decision order — one JSON object per line. A
// non-finite event time, or a name outside t's table, is an error.
func (t *Trace) WriteJSONL(w io.Writer) error { return t.WriteJSONLAfter(w, nil) }

// WriteJSONLAfter writes head and then the recording as WriteJSONL does,
// head in the same first Write as the recording's first lines.
func (t *Trace) WriteJSONLAfter(w io.Writer, head []byte) error {
	bp := wire.GetBuf()
	b := append(*bp, head...)
	enc := getEncoder(t.names)
	defer func() {
		*bp = b
		wire.PutBuf(bp)
		putEncoder(enc)
	}()
	n := len(t.Events) + len(t.Dispatches)
	for i := 0; i < n; i++ {
		var err error
		if i < len(t.Events) {
			b, err = enc.appendEvent(b, &t.Events[i])
		} else {
			d := &t.Dispatches[i-len(t.Events)]
			b, err = enc.appendDispatch(b, d)
		}
		if err != nil {
			return err
		}
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if len(b) > 0 {
		_, err := w.Write(b)
		return err
	}
	return nil
}

// encoder is WriteJSONL's per-call state: the time memo and the trace's
// names, each rendered once as a JSON string.
type encoder struct {
	memo  timeMemo
	names []byte // the rendered names, back to back
	ends  []int  // Name n's rendering is names[ends[n-1]:ends[n]]
}

var encoders sync.Pool

// encoderKeep caps the rendered-name bytes a pooled encoder may hold.
const encoderKeep = 16 << 10

// getEncoder returns a pooled encoder holding names rendered.
func getEncoder(names []string) *encoder {
	enc, _ := encoders.Get().(*encoder)
	if enc == nil {
		enc = new(encoder)
	}
	enc.memo.n = 0
	enc.names, enc.ends = enc.names[:0], append(enc.ends[:0], 0)
	for _, name := range names {
		enc.names = wire.AppendString(enc.names, name)
		enc.ends = append(enc.ends, len(enc.names))
	}
	return enc
}

func putEncoder(enc *encoder) {
	if cap(enc.names)+8*cap(enc.ends) <= encoderKeep {
		encoders.Put(enc)
	}
}

// appendName appends key and Name n's rendering, or nothing for the zero
// Name.
func (enc *encoder) appendName(b []byte, key string, n Name) ([]byte, error) {
	if n == 0 {
		return b, nil
	}
	if int(n) >= len(enc.ends) {
		return b, fmt.Errorf("trace: name %d outside a table of %d", n, len(enc.ends)-1)
	}
	return append(append(b, key...), enc.names[enc.ends[n-1]:enc.ends[n]]...), nil
}

// timeMemo holds the last time appendTime rendered, as its bits and its
// wire bytes. Consecutive records often share a time, and copying its
// bytes is cheaper than formatting it again.
type timeMemo struct {
	bits uint64
	n    int // the length of the rendered time in b; 0 before the first
	b    [32]byte
}

// appendTime appends `{"t":` and x's wire bytes. It reports false, and
// appends nothing of x, when x is not finite.
func (m *timeMemo) appendTime(b []byte, x float64) ([]byte, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return b, false
	}
	b = append(b, `{"t":`...)
	bits := math.Float64bits(x)
	if m.n > 0 && bits == m.bits {
		return append(b, m.b[:m.n]...), true
	}
	start := len(b)
	b = wire.AppendFloat(b, x)
	if len(b)-start <= len(m.b) { // a float64 renders in at most 24 bytes
		m.bits, m.n = bits, copy(m.b[:], b[start:])
	}
	return b, true
}

// errTime is the error for a non-finite time in a record of kind k.
func errTime(x float64, k string) error {
	return fmt.Errorf("trace: unsupported time %v in a %s record", x, k)
}

// appendEvent appends e's wire line.
func (enc *encoder) appendEvent(b []byte, e *Event) ([]byte, error) {
	b, ok := enc.memo.appendTime(b, e.Time)
	if !ok {
		return b, errTime(e.Time, e.Kind.String())
	}
	var err error
	if int(e.Kind) < len(kindTokens) {
		b = append(b, kindTokens[e.Kind]...)
	} else {
		b = wire.AppendString(append(b, `,"k":`...), e.Kind.String())
	}
	b = appendInt(b, `,"task":`, int64(e.Task))
	if b, err = enc.appendName(b, `,"tkind":`, e.TaskKind); err != nil {
		return b, err
	}
	b = appendInt(b, `,"w":`, int64(e.Worker))
	b = appendInt(b, `,"obj":`, int64(e.Obj))
	b = appendInt(b, `,"chunk":`, int64(e.Chunk))
	if e.Kind.hasTier() {
		if e.To >= 0 && int(e.To) < len(tierTokens) {
			b = append(b, tierTokens[e.To]...)
		} else {
			b = wire.AppendString(append(b, `,"to":`...), e.To.String())
		}
	}
	b = appendInt(b, `,"bytes":`, e.Bytes)
	if !e.OK {
		b = append(b, `,"fail":true`...)
	}
	if b, err = enc.appendName(b, `,"label":`, e.Label); err != nil {
		return b, err
	}
	return append(b, "}\n"...), nil
}

// appendDispatch appends d's wire line.
func (enc *encoder) appendDispatch(b []byte, d *Dispatch) ([]byte, error) {
	b, ok := enc.memo.appendTime(b, d.Time)
	if !ok {
		return b, errTime(d.Time, dispatchKind)
	}
	b = append(b, `,"k":"`+dispatchKind+`"`...)
	b = appendInt(b, `,"task":`, int64(d.Task))
	b = appendInt(b, `,"w":`, int64(d.Worker))
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
// reads rd to its end, into a pooled buffer, before decoding.
func ReadJSONL(rd io.Reader) (*Trace, error) {
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	in, rerr := wire.ReadAll(rd, bp)
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
// number of dispatch records, clamped to the records b can hold; the
// rest of b's lines size the event table. The dispatch table is sized
// at the first dispatch record, for the larger of dispatches and the
// lines left, which in a recording as WriteJSONL writes it are exactly
// its dispatch records. So no hint makes DecodeJSONL allocate beyond
// what b holds, and a wrong one costs a regrowth. A table that receives
// no record stays nil.
func DecodeJSONL(b []byte, first, dispatches int) (*Trace, error) {
	lines := bytes.Count(b, []byte{'\n'})
	if len(b) > 0 && b[len(b)-1] != '\n' {
		lines++
	}
	lines = min(lines, (len(b)+1)/(minRecord+1))
	dispatches = min(max(dispatches, 0), lines)
	d := decoder{events: lines - dispatches, dispatches: dispatches}
	t := &Trace{}
	for line := first + 1; len(b) > 0; line++ {
		d.left = lines - (line - first - 1)
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

// decoder parses one line at a time, in place. It remembers the last
// time token it parsed, which often repeats on the next line.
type decoder struct {
	wire.Lexer
	// events and dispatches size the tables at their first record, with
	// left, the lines not yet decoded, the current one included.
	events, dispatches, left int
	// tTok is the last time token parsed (a slice of the input) and tVal
	// its value; tTok is nil before the first.
	tTok []byte
	tVal float64
}

// line decodes one line into t: an event, a dispatch record, or nothing
// for a blank line. An event's task kind and label go into t's name
// table, the task kind first.
func (d *decoder) line(t *Trace, line []byte) error {
	d.Reset(line)
	if d.Space(); d.I == len(d.B) {
		return nil
	}
	if !d.Eat('{') {
		return d.Syntax("'{'")
	}
	var (
		e                      Event
		kind, to, tkind, label []byte
		fail                   bool
		seen                   uint
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
			bit, err = 1<<3, d.str(&tkind)
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
			bit, err = 1<<10, d.str(&label)
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
			t.Dispatches = make([]Dispatch, 0, max(d.dispatches, d.left))
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
	var err error
	if e.TaskKind, err = intern(t, tkind); err != nil {
		return err
	}
	if e.Label, err = intern(t, label); err != nil {
		return err
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
