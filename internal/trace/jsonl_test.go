package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/task"
)

// Floats at and around encoding/json's format cutoffs, the extremes and
// the non-finite values it refuses.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789.123, 5e-324,
	math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// String pieces covering every rendering path: plain ASCII, the HTML
// escapes, quote and backslash, control bytes, DEL, multi-byte UTF-8,
// U+2028/U+2029, invalid UTF-8 and an encoded surrogate.
var stringPieces = []string{
	"", "a", "potrf", " ", "/", "<", ">", "&", `"`, `\`, "\n", "\t", "\x00", "\x1f",
	"\x7f", "é", "日本", " ", " ", "\xff", "\xed\xa0\x80", "\U0001F600",
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 2:
		return float64(rng.Intn(1000)) * rng.Float64()
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(4); n > 0; n-- {
		b.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return b.String()
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return int64(rng.Intn(64)) - 8
	}
	return rng.Int63() - rng.Int63()
}

// timeDraw draws the times of one trace's records in write order: often
// the previous time again (a run of equal times, which WriteJSONL copies
// from its memo), the other zero next to a zero, a NaN right after a
// repeat, or a fresh randFloat. A finite draw redraws NaN and infinity.
type timeDraw struct {
	rng    *rand.Rand
	finite bool
	prev   float64
	repeat bool // prev repeated the time before it
}

func (d *timeDraw) next() float64 {
	x := randFloat(d.rng)
	switch r := d.rng.Intn(20); {
	case r < 8:
		x = d.prev
	case r == 8 && d.prev == 0:
		x = -d.prev
	case r == 9 && d.repeat:
		x = math.NaN()
	}
	for d.finite && (math.IsNaN(x) || math.IsInf(x, 0)) {
		x = randFloat(d.rng)
	}
	d.repeat = math.Float64bits(x) == math.Float64bits(d.prev)
	d.prev = x
	return x
}

// randTrace draws a trace of any kinds (out-of-range ones included),
// tiers, names (now and then one past the table's end), integers and
// float bit patterns. Every 50th trace is long enough to cross
// WriteJSONL's flush threshold several times, and its times are finite
// so that it writes.
func randTrace(rng *rand.Rand, i int) *Trace {
	n := rng.Intn(8)
	times := &timeDraw{rng: rng}
	if i%50 == 0 {
		n, times.finite = 300, true
	}
	tr := &Trace{}
	name := func() Name {
		if i%50 != 0 && rng.Intn(100) == 0 {
			return Name(len(tr.names) + 1)
		}
		return tr.must(randString(rng))
	}
	for j := 0; j < n; j++ {
		tr.Add(Event{
			Time: times.next(), Kind: Kind(rng.Intn(len(kindNames)+2) - 1),
			Task: task.TaskID(randInt(rng)), TaskKind: name(), Worker: int(randInt(rng)),
			Obj: task.ObjectID(randInt(rng)), Chunk: int(randInt(rng)),
			To: mem.Tier(rng.Intn(mem.MaxTiers+3) - 1), Bytes: randInt(rng),
			OK: rng.Intn(2) == 0, Label: name(),
		})
	}
	for j := rng.Intn(4); j > 0; j-- {
		tr.AddDispatch(Dispatch{Time: times.next(), Task: task.TaskID(randInt(rng)), Worker: int(randInt(rng))})
	}
	return tr
}

// countTimeShapes counts the memo paths t's record times take into n:
// a repeated finite time, a zero next to the other zero, and a NaN right
// after a repeated time.
func countTimeShapes(t *Trace, n *[3]int) {
	var times []float64
	for _, e := range t.Events {
		times = append(times, e.Time)
	}
	for _, d := range t.Dispatches {
		times = append(times, d.Time)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 1; i < len(times); i++ {
		a, b := times[i-1], times[i]
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return // the write fails at a
		}
		if same(a, b) {
			n[0]++
		}
		if a == 0 && b == 0 && !same(a, b) {
			n[1]++
		}
		if i > 1 && same(times[i-2], a) && math.IsNaN(b) {
			n[2]++
		}
	}
}

// TestWriteJSONLMatchesReference: on random traces WriteJSONL writes
// exactly the bytes encoding/json writes, names resolved through the
// trace's table, and fails exactly when it does (on a non-finite time or
// a name past the table's end).
func TestWriteJSONLMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var failed int
	var shapes [3]int
	for i := 0; i < 20000; i++ {
		tr := randTrace(rng, i)
		countTimeShapes(tr, &shapes)
		var got, want bytes.Buffer
		err := tr.WriteJSONL(&got)
		refErr := RefWriteJSONL(tr, &want)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("trace %d: error %v, encoding/json error %v", i, err, refErr)
		}
		if err != nil {
			failed++
			continue
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trace %d: wire bytes differ:\n%s\nencoding/json:\n%s", i, got.Bytes(), want.Bytes())
		}
	}
	if failed == 0 || failed == 20000 {
		t.Fatalf("%d of 20000 traces failed to encode; the draw misses a path", failed)
	}
	if shapes[0] == 0 || shapes[1] == 0 || shapes[2] == 0 {
		t.Fatalf("%d repeated times, %d zeros next to the other zero and %d NaNs after a repeat; the draw misses a memo path",
			shapes[0], shapes[1], shapes[2])
	}
}

// FuzzReadJSONL: ReadJSONL never panics; it accepts and refuses exactly
// what the line-at-a-time reader it replaced does, with the same error;
// whatever it accepts, encoding/json accepts too and decodes to an
// equal Trace; and the accepted Trace survives a write and a read
// unchanged.
func FuzzReadJSONL(f *testing.F) {
	tr := failedSample()
	tr.AddDispatch(Dispatch{Time: 1, Task: 2, Worker: 1})
	tr.Add(Event{Time: 3e-7, Kind: FaultInject, To: 2, Label: tr.must("degrade")})
	var seed bytes.Buffer
	if err := tr.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// The time memo's seeds: a repeated time token, one value spelled
	// several ways (and the two zeros), and a repeated out-of-range time,
	// which is refused at its first line.
	f.Add([]byte("{\"t\":0.25,\"k\":\"task-start\"}\n{\"t\":0.25,\"k\":\"task-end\"}\n{\"t\":0.25,\"k\":\"dispatch\"}\n"))
	f.Add([]byte("{\"t\":0.5,\"k\":\"plan\"}\n{\"t\":5e-1,\"k\":\"plan\"}\n{\"t\":0.50,\"k\":\"plan\"}\n{\"t\":0,\"k\":\"plan\"}\n{\"t\":-0,\"k\":\"plan\"}\n{\"t\":0,\"k\":\"plan\"}\n"))
	outOfRange := []byte("{\"t\":1,\"k\":\"plan\"}\n{\"t\":1e400,\"k\":\"plan\"}\n{\"t\":1e400,\"k\":\"plan\"}\n")
	if _, err := ReadJSONL(bytes.NewReader(outOfRange)); err == nil || !strings.HasPrefix(err.Error(), "trace: line 2: ") {
		f.Fatalf("a repeated out-of-range time: error %v, want one at line 2", err)
	}
	f.Add(outOfRange)
	// A trailing '\r' is dropped before a line is decoded, so an
	// unterminated string ends before it, as it did for the scanner.
	f.Add([]byte("{\"t\":1,\"k\":\"plan\"}\r\n{\"t\":1,\"k\":\"pl\r\n"))
	// Many distinct names, enough for the name table to outgrow its
	// linear search, each repeated, some escaped, and labels before task
	// kinds within a line.
	var names bytes.Buffer
	for i := 0; i < 3*scanNames; i++ {
		fmt.Fprintf(&names, "{\"t\":%d,\"k\":\"task-start\",\"label\":\"l%d\",\"tkind\":\"k%d\\u00e9\"}\n", i, i, i/2)
		fmt.Fprintf(&names, "{\"t\":%d,\"k\":\"plan\",\"label\":\"l%d\"}\n", i, i/3)
	}
	f.Add(names.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadJSONL(bytes.NewReader(in))
		scanned, scanErr := scanReadJSONL(bytes.NewReader(in))
		if fmt.Sprint(err) != fmt.Sprint(scanErr) {
			t.Fatalf("error %v, the line-at-a-time reader's %v", err, scanErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, scanned) {
			t.Fatalf("decoded %+v\nthe line-at-a-time reader decoded %+v", got, scanned)
		}
		want, err := RefReadJSONL(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("accepted input encoding/json rejects: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v\nencoding/json decoded %+v", got, want)
		}
		var out bytes.Buffer
		if err := got.WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("re-read: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("re-read %+v\nwant %+v", back, got)
		}
	})
}

// TestReadJSONLLineLimit: a line of up to 1 MiB less one byte before its
// newline reads, with or without the newline and a trailing '\r'; one
// byte more fails with bufio.ErrTooLong, as the line-at-a-time reader
// did, after every line before it has been checked.
func TestReadJSONLLineLimit(t *testing.T) {
	rec := `{"t":1,"k":"plan","label":"x"}`
	pad := func(n int, tail string) string {
		return rec + strings.Repeat(" ", n-len(rec)-len(tail)) + tail
	}
	for _, c := range []struct {
		in   string
		fail bool
	}{
		{pad(maxLine, "") + "\n", false},
		{pad(maxLine, ""), false},
		{pad(maxLine, "\r") + "\n", false},
		{"\n" + pad(maxLine, "\r"), false},
		{pad(maxLine+1, "") + "\n", true},
		{pad(maxLine+1, ""), true},
		{pad(maxLine+1, "\r") + "\n", true},
		{rec + "\n" + pad(maxLine+1, ""), true},
	} {
		got, err := ReadJSONL(strings.NewReader(c.in))
		want, wantErr := scanReadJSONL(strings.NewReader(c.in))
		if (err != nil) != c.fail || fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%d bytes: error %v, the line-at-a-time reader's %v", len(c.in), err, wantErr)
		}
		if c.fail && err != bufio.ErrTooLong {
			t.Errorf("%d bytes: error %v, want bufio.ErrTooLong", len(c.in), err)
		}
	}
	// A bad line before the long one is reported first.
	in := rec + "\n{\"t\":1}\n" + pad(maxLine+1, "")
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil || !strings.HasPrefix(err.Error(), "trace: line 2: ") {
		t.Errorf("error %v, want the bad line 2", err)
	}
}

// TestDecodeJSONLSizes: DecodeJSONL sizes its tables exactly when the
// hint is the dispatch count, even for records of the shortest form,
// keeps them within three times the lines it is given whatever the
// hint, and leaves a table nil when no record of its kind arrives.
func TestDecodeJSONLSizes(t *testing.T) {
	want := sample()
	for i := 0; i < 3; i++ {
		want.AddDispatch(Dispatch{Time: float64(i), Task: task.TaskID(i)})
	}
	var buf bytes.Buffer
	if err := want.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	in := buf.Bytes()
	lines := bytes.Count(in, []byte{'\n'})
	for _, hint := range []int{-1, 0, 2, 3, lines, 1 << 40} {
		tr, err := DecodeJSONL(in, 0, hint)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Fatalf("hint %d: decoded %+v", hint, tr)
		}
		if c := cap(tr.Events) + cap(tr.Dispatches); c > 3*lines {
			t.Errorf("hint %d: %d+%d capacity for %d lines", hint, cap(tr.Events), cap(tr.Dispatches), lines)
		}
		if hint == len(want.Dispatches) && (cap(tr.Events) != len(tr.Events) || cap(tr.Dispatches) != len(tr.Dispatches)) {
			t.Errorf("exact hint: %d/%d events, %d/%d dispatches", len(tr.Events), cap(tr.Events), len(tr.Dispatches), cap(tr.Dispatches))
		}
	}
	short := strings.Repeat(`{"k":"plan"}`+"\n", 40)
	if tr, err := DecodeJSONL([]byte(short), 0, 0); err != nil || len(tr.Events) != 40 || cap(tr.Events) != 40 {
		t.Errorf("40 shortest records: %d/%d events, %v", len(tr.Events), cap(tr.Events), err)
	}
	for _, in := range []string{"", "\n \t\r\n", `{"t":0,"k":"dispatch"}`, `{"t":0,"k":"plan"}`, `{"k":"plan"}`} {
		tr, err := DecodeJSONL([]byte(in), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if (tr.Events == nil) != !strings.Contains(in, "plan") || (tr.Dispatches == nil) != !strings.Contains(in, "dispatch") {
			t.Errorf("%q: events %#v, dispatches %#v", in, tr.Events, tr.Dispatches)
		}
	}
}
