// Package wire holds the hand-written JSON primitives of the
// repository's strict codecs: the trace JSONL codec (internal/trace),
// the recording header (internal/replay) and the /v1/run request codec
// (internal/serve). A Lexer reads tokens in place from a byte slice and
// accepts exactly JSON's grammar for each token it reads; AppendFloat
// and AppendString render values byte-identical to encoding/json. Each
// codec keeps encoding/json in a _test.go file as the oracle its tests
// and fuzz target compare against. GetBuf and PutBuf pool the buffers
// the codecs write lines into and read whole inputs into; ReadAll reads
// an input into one, for a Lexer to decode in place.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Lexer reads JSON tokens from B, starting at byte I.
type Lexer struct {
	B []byte
	I int
}

// Reset points l at the start of b.
func (l *Lexer) Reset(b []byte) { l.B, l.I = b, 0 }

// Syntax returns an error naming the column and what was wanted there.
func (l *Lexer) Syntax(want string) error {
	return fmt.Errorf("column %d: want %s", l.I+1, want)
}

// Space skips JSON whitespace.
func (l *Lexer) Space() {
	for l.I < len(l.B) && (l.B[l.I] == ' ' || l.B[l.I] == '\t' || l.B[l.I] == '\r' || l.B[l.I] == '\n') {
		l.I++
	}
}

// Eat consumes c if it comes next.
func (l *Lexer) Eat(c byte) bool {
	if l.I < len(l.B) && l.B[l.I] == c {
		l.I++
		return true
	}
	return false
}

// Null consumes a null literal if one comes next.
func (l *Lexer) Null() bool {
	if bytes.HasPrefix(l.B[l.I:], []byte("null")) {
		l.I += 4
		return true
	}
	return false
}

// Str decodes a JSON string. Plain ASCII comes back in place, as a slice
// of B; a string with escapes or other bytes goes through
// json.Unmarshal, so it decodes exactly as there.
func (l *Lexer) Str() ([]byte, error) {
	if !l.Eat('"') {
		return nil, l.Syntax("a string")
	}
	b, start := l.B, l.I
	i := start
	for ; i < len(b); i++ {
		if c := b[i]; c == '"' {
			l.I = i + 1
			return b[start:i], nil
		} else if c == '\\' || c < 0x20 || c >= 0x80 {
			break
		}
	}
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			l.I = i + 1
			var s string
			if err := json.Unmarshal(b[start-1:l.I], &s); err != nil {
				return nil, err
			}
			return []byte(s), nil
		case '\\':
			i++ // skip the escaped byte, which may be '"'
		}
	}
	l.I = i
	return nil, l.Syntax(`a closing '"'`)
}

// Object parses a JSON object. field parses the value of each member
// and returns the member's key bit, one bit per key the object may
// hold, or 0, without parsing anything, for an unknown key. A key
// matches exactly or not at all, and a key seen twice is an error.
func (l *Lexer) Object(field func(key []byte) (uint32, error)) error {
	if !l.Eat('{') {
		return l.Syntax("an object")
	}
	var seen uint32
	for n := 0; ; n++ {
		if l.Space(); l.Eat('}') {
			return nil
		}
		if n > 0 {
			if !l.Eat(',') {
				return l.Syntax("',' or '}'")
			}
			l.Space()
		}
		key, err := l.Str()
		if err != nil {
			return err
		}
		if l.Space(); !l.Eat(':') {
			return l.Syntax("':'")
		}
		l.Space()
		bit, err := field(key)
		switch {
		case bit == 0:
			return fmt.Errorf("unknown key %q", key)
		case err != nil:
			return fmt.Errorf("key %q: %w", key, err)
		case seen&bit != 0:
			return fmt.Errorf("duplicate key %q", key)
		}
		seen |= bit
	}
}

// Number consumes a token of JSON number grammar and returns it.
func (l *Lexer) Number() ([]byte, error) {
	start := l.I
	l.Eat('-')
	if !l.Eat('0') && l.digits() == 0 {
		return nil, l.Syntax("a number")
	}
	if l.Eat('.') && l.digits() == 0 {
		return nil, l.Syntax("a digit")
	}
	if l.Eat('e') || l.Eat('E') {
		if !l.Eat('+') {
			l.Eat('-')
		}
		if l.digits() == 0 {
			return nil, l.Syntax("a digit")
		}
	}
	return l.B[start:l.I], nil
}

func (l *Lexer) digits() int {
	start := l.I
	for l.I < len(l.B) && '0' <= l.B[l.I] && l.B[l.I] <= '9' {
		l.I++
	}
	return l.I - start
}

// Float decodes a JSON number. A value outside float64's range is an
// error, as it is for encoding/json.
func (l *Lexer) Float(p *float64) error {
	tok, err := l.Number()
	if err != nil {
		return err
	}
	*p, err = strconv.ParseFloat(string(tok), 64)
	return err
}

// Int decodes a JSON integer into *p. A fraction, an exponent or a value
// outside *p's range is an error, as it is for encoding/json.
func Int[T ~int | ~int64](l *Lexer, p *T) error {
	tok, err := l.Number()
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

// Bool decodes true or false.
func (l *Lexer) Bool(p *bool) error {
	switch rest := l.B[l.I:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*p, l.I = true, l.I+4
	case bytes.HasPrefix(rest, []byte("false")):
		*p, l.I = false, l.I+5
	default:
		return l.Syntax("true or false")
	}
	return nil
}

// AppendFloat renders x as encoding/json does: shortest round-trip
// digits, in 'f' form unless |x| < 1e-6 or |x| >= 1e21, and a negative
// exponent without its leading zero (1e-7, not 1e-07). x must be finite.
func AppendFloat(b []byte, x float64) []byte {
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

// AppendString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes (" and \, and <, > and & for HTML
// safety) is copied; any other string goes through json.Marshal, so
// escapes, U+2028/U+2029 and invalid UTF-8 render exactly as there.
func AppendString(b []byte, s string) []byte {
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

// bufKeep caps the bytes a kept buffer may hold: room for a 64 KiB
// flush of the line writers with the line that crossed it, or for a
// recording of that size read whole. A kept buffer counts in the live
// heap, so one that a long input grew past the cap is dropped rather
// than left to pin its bytes.
const bufKeep = 128 << 10

// spare holds one buffer that the garbage collector never empties, and
// bufs the others. A sync.Pool moves its values aside at each
// collection and drops them at the next, so a buffer held only there
// counts in a live-heap reading or not depending on where the last
// collection fell, and a process that writes a recording now and then
// regrows it from 8 KiB. A lone user of the buffers, a sequence of
// Save, Load and WriteJSONL calls, always takes and returns the spare.
var (
	spare atomic.Pointer[[]byte]
	bufs  sync.Pool
)

// GetBuf returns an empty buffer: the spare, a pooled one, or a new one
// of 8 KiB that grows to what its first user needs.
func GetBuf() *[]byte {
	b := spare.Swap(nil)
	if b == nil {
		b, _ = bufs.Get().(*[]byte)
	}
	if b == nil {
		nb := make([]byte, 0, 8<<10)
		return &nb
	}
	*b = (*b)[:0]
	return b
}

// PutBuf keeps b, as the spare if that is free and in the pool if not,
// unless it holds more than 128 KiB. Nothing may refer into *b
// afterwards.
func PutBuf(b *[]byte) {
	if cap(*b) > bufKeep {
		return
	}
	if !spare.CompareAndSwap(nil, b) {
		bufs.Put(b)
	}
}

// ReadAll reads r to its end into *bp, which it grows as needed and
// leaves holding the input, and returns the input with the error that
// ended it, or nil at io.EOF. A reader that knows its length (a
// bytes.Reader, strings.Reader or bytes.Buffer) is read into room made
// at most once.
func ReadAll(r io.Reader, bp *[]byte) ([]byte, error) {
	buf := (*bp)[:0]
	if lr, ok := r.(interface{ Len() int }); ok && cap(buf) <= lr.Len() {
		buf = make([]byte, 0, lr.Len()+1) // +1: room to read the EOF into
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			*bp = buf
			return buf, err
		}
	}
}
