package wire

import (
	"runtime"
	"testing"
)

// TestStr: Str returns a plain string in place and any other through
// json.Unmarshal, leaves I after the closing quote, and names the column
// it stopped at when the string does not close.
func TestStr(t *testing.T) {
	for _, c := range []struct {
		in, want, err string
		end           int
	}{
		{in: `"plain" x`, want: "plain", end: 7},
		{in: `""`, want: "", end: 2},
		{in: `"a\"b"`, want: `a"b`, end: 6},
		{in: `"a\\"`, want: `a\`, end: 5},
		{in: `"\u00e9t\u00e9"`, want: "été", end: 15},
		{in: `"été"`, want: "été", end: 7},
		{in: `x`, err: "column 1: want a string", end: 0},
		{in: `"open`, err: `column 6: want a closing '"'`, end: 5},
		{in: `"esc\"`, err: `column 7: want a closing '"'`, end: 6},
		{in: `"ends in \`, err: `column 12: want a closing '"'`, end: 11}, // past the escaped byte
		{in: "\"tab\there\"", err: "invalid character '\\t' in string literal", end: 10},
		{in: `"bad \q"`, err: "invalid character 'q' in string escape code", end: 8},
	} {
		var l Lexer
		l.Reset([]byte(c.in))
		got, err := l.Str()
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if msg != c.err || string(got) != c.want || l.I != c.end {
			t.Errorf("Str(%q) = %q, %q, I %d; want %q, %q, I %d", c.in, got, msg, l.I, c.want, c.err, c.end)
		}
	}
}

// TestSpareBufSurvivesGC: a buffer returned by a lone user is the spare,
// which garbage collections leave in place, so the next GetBuf returns
// it with its room; one past 128 KiB is dropped.
func TestSpareBufSurvivesGC(t *testing.T) {
	b := GetBuf()
	*b = append(*b, make([]byte, 40<<10)...)
	PutBuf(b)
	runtime.GC()
	runtime.GC()
	if got := GetBuf(); got != b || len(*got) != 0 || cap(*got) < 40<<10 {
		t.Fatalf("GetBuf after two collections: same %v, len %d, cap %d; want the spare, empty, cap >= %d",
			got == b, len(*got), cap(*got), 40<<10)
	}
	*b = append(*b, make([]byte, bufKeep+1)...)
	PutBuf(b)
	if got := GetBuf(); got == b {
		t.Fatal("a buffer past bufKeep was kept")
	}
}
