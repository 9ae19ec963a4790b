package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/task"
)

// must interns s in t; the tests' tables never fill.
func (t *Trace) must(s string) Name {
	n, err := t.Intern(s)
	if err != nil {
		panic(err)
	}
	return n
}

func sample() *Trace {
	t := &Trace{}
	a, b := t.must("a"), t.must("b")
	t.Add(Event{Time: 0, Kind: TaskStart, Task: task.TaskID(0), TaskKind: a, Worker: 0, OK: true})
	t.Add(Event{Time: 0, Kind: TaskStart, Task: 1, TaskKind: b, Worker: 1, OK: true})
	t.Add(Event{Time: 1, Kind: TaskEnd, Task: 0, TaskKind: a, Worker: 0, OK: true})
	t.Add(Event{Time: 1, Kind: TaskStart, Task: 2, TaskKind: a, Worker: 0, OK: true})
	t.Add(Event{Time: 2, Kind: TaskEnd, Task: 1, TaskKind: b, Worker: 1, OK: true})
	t.Add(Event{Time: 4, Kind: TaskEnd, Task: 2, TaskKind: a, Worker: 0, OK: true})
	t.Add(Event{Time: 0.5, Kind: MigrationStart, Obj: 3, Chunk: 0, To: mem.InDRAM, Bytes: 1 << 20, OK: true})
	t.Add(Event{Time: 1.5, Kind: MigrationEnd, Obj: 3, Chunk: 0, To: mem.InDRAM, Bytes: 1 << 20, OK: true})
	t.Add(Event{Time: 2, Kind: Plan, Label: t.must("global"), OK: true})
	return t
}

func TestByKind(t *testing.T) {
	stats := sample().ByKind()
	if len(stats) != 2 {
		t.Fatalf("kinds = %d", len(stats))
	}
	a := stats[0]
	if a.Kind != "a" || a.Count != 2 || a.Min != 1 || a.Max != 3 {
		t.Fatalf("a stats = %+v", a)
	}
	if math.Abs(a.Mean()-2) > 1e-12 {
		t.Fatalf("a mean = %g", a.Mean())
	}
	b := stats[1]
	if b.Kind != "b" || b.Count != 1 || b.Total != 2 {
		t.Fatalf("b stats = %+v", b)
	}
}

func TestMigrations(t *testing.T) {
	migs := sample().Migrations()
	if len(migs) != 1 {
		t.Fatalf("migrations = %d", len(migs))
	}
	m := migs[0]
	if m.Start != 0.5 || m.End != 1.5 || m.Obj != 3 || m.Bytes != 1<<20 || m.To != mem.InDRAM || !m.OK {
		t.Fatalf("migration = %+v", m)
	}
}

// failedSample extends sample() with one failed copy (started but found
// no room at completion) and one dropped request (lone failed end).
func failedSample() *Trace {
	tr := sample()
	tr.Add(Event{Time: 2.0, Kind: MigrationStart, Obj: 4, Chunk: 1, To: mem.InDRAM, Bytes: 2 << 20, OK: true})
	tr.Add(Event{Time: 2.5, Kind: MigrationEnd, Obj: 4, Chunk: 1, To: mem.InDRAM, Bytes: 2 << 20})
	tr.Add(Event{Time: 3.0, Kind: MigrationEnd, Obj: 5, Chunk: 0, To: mem.InDRAM, Bytes: 4 << 20})
	return tr
}

func TestFailedMigrations(t *testing.T) {
	migs := failedSample().Migrations()
	if len(migs) != 3 {
		t.Fatalf("migrations = %d: %+v", len(migs), migs)
	}
	failed := migs[1]
	if failed.OK || failed.Obj != 4 || failed.Start != 2.0 || failed.End != 2.5 {
		t.Fatalf("failed copy = %+v", failed)
	}
	dropped := migs[2]
	if dropped.OK || dropped.Obj != 5 || dropped.Start != dropped.End || dropped.Start != 3.0 {
		t.Fatalf("dropped request = %+v", dropped)
	}
	s := failedSample().MigrationStats()
	if s.Count != 1 || s.Failed != 2 || s.BytesMoved != 1<<20 || s.CopySec != 1.0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrency(t *testing.T) {
	mean, peak := sample().Concurrency()
	// Tasks: [0,1] two running; [1,2] two running; [2,4] one running.
	// Mean over [0,4] = (2+2+1+1)/4 = 1.5.
	if peak != 2 {
		t.Fatalf("peak = %d", peak)
	}
	if math.Abs(mean-1.5) > 1e-12 {
		t.Fatalf("mean = %g", mean)
	}
}

func TestDurationAndLen(t *testing.T) {
	tr := sample()
	if tr.Duration() != 4 {
		t.Fatalf("duration = %g", tr.Duration())
	}
	if tr.Len() != 9 {
		t.Fatalf("len = %d", tr.Len())
	}
	var empty Trace
	if empty.Duration() != 0 {
		t.Fatal("empty duration")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time,kind") {
		t.Fatal("missing header")
	}
	if !strings.Contains(b.String(), "plan") || !strings.Contains(b.String(), "global") {
		t.Fatal("plan event lost")
	}
}

func TestTimeline(t *testing.T) {
	var b strings.Builder
	if err := sample().Timeline(&b, 2, 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "w0 ") || !strings.Contains(out, "mig |") {
		t.Fatalf("timeline rows missing:\n%s", out)
	}
	// Worker 0 busy the whole run, worker 1 only the first half.
	rows := strings.Split(out, "\n")
	w0 := rows[0]
	w1 := rows[1]
	if strings.Count(w0, "#") <= strings.Count(w1, "#") {
		t.Fatalf("w0 should be busier:\n%s", out)
	}
	if !strings.Contains(rows[2], "m") {
		t.Fatalf("migration row empty:\n%s", out)
	}
	var empty Trace
	b.Reset()
	if err := empty.Timeline(&b, 2, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "empty trace") {
		t.Fatal("empty trace rendering")
	}
}

func TestUnmatchedEventsIgnored(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{Time: 1, Kind: TaskEnd, Task: 9, TaskKind: tr.must("x"), OK: true})
	tr.Add(Event{Time: 1, Kind: MigrationEnd, Obj: 9, OK: true})
	if len(tr.ByKind()) != 0 || len(tr.Migrations()) != 0 {
		t.Fatal("unmatched ends produced records")
	}
}

func TestTimelineFailedMarker(t *testing.T) {
	var b strings.Builder
	if err := failedSample().Timeline(&b, 2, 40); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(b.String(), "\n")
	if !strings.Contains(rows[2], "m") || !strings.Contains(rows[2], "x") {
		t.Fatalf("migration row should carry both 'm' and 'x':\n%s", b.String())
	}
}

// TestJSONLRoundTrip pins the canonical serialization: a recording with
// all five event kinds, a failed migration, and dispatch records must
// parse back to an identical Trace and re-serialize byte-identically.
func TestJSONLRoundTrip(t *testing.T) {
	tr := failedSample()
	tr.AddDispatch(Dispatch{Time: 0, Task: 0, Worker: 0})
	tr.AddDispatch(Dispatch{Time: 0, Task: 1, Worker: 1})
	tr.AddDispatch(Dispatch{Time: 1, Task: 2, Worker: 0})

	var first strings.Builder
	if err := tr.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadJSONL(strings.NewReader(first.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, tr) {
		t.Fatalf("parsed trace differs:\n%+v\nwant:\n%+v", parsed, tr)
	}
	var second strings.Builder
	if err := parsed.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("re-serialization not byte-identical:\n%s\nvs:\n%s", first.String(), second.String())
	}
	kinds := map[string]bool{}
	for _, e := range tr.Events {
		kinds[e.Kind.String()] = true
	}
	if len(kinds) != 5 {
		t.Fatalf("round-trip sample covers %d kinds, want all 5", len(kinds))
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"{not json}",
		`{"t":1,"k":"no-such-kind"}`,
		`{"t":1,"k":"mig-end","to":"TAPE"}`,
		// Only mem.Tier(n).String() names tier n.
		`{"t":1,"k":"mig-end","to":"T0"}`,
		`{"t":1,"k":"mig-end","to":"T1"}`,
		`{"t":1,"k":"mig-end","to":"T2xyz"}`,
		`{"t":1,"k":"mig-end","to":"T 3"}`,
		`{"t":1,"k":"mig-end","to":"T+2"}`,
		`{"t":1,"k":"mig-end","to":"T4"}`,
		`{"t":1,"k":"mig-end","to":"dram"}`,
		// A tier on a kind that never carries one would not survive a
		// write.
		`{"t":1,"k":"task-start","to":"DRAM"}`,
		// The encoding/json reader accepted these silently.
		"\f{\"t\":1,\"k\":\"plan\"}",
		`{"t":1,"k":"plan","bogus":1}`,
		`{"t":1,"k":"plan","T":2}`,
		`{"t":1,"t":2,"k":"plan"}`,
		`{"t":null,"k":"plan"}`,
		`{"t":1,"k":"plan","label":null}`,
		`{"t":1,"k":"plan","bogus":{"t":1}}`,
		// encoding/json rejected these too.
		`{"t":1,"k":"plan","task":{}}`,
		`{"t":1,"k":"plan","task":[1]}`,
		`{"t":1,"k":"plan","task":1.5}`,
		`{"t":1,"k":"plan","task":1e3}`,
		`{"t":1,"k":"plan","bytes":9223372036854775808}`,
		`{"t":1e400,"k":"plan"}`,
		`{"t":"1","k":"plan"}`,
		`{"t":01,"k":"plan"}`,
		`{"t":1.,"k":"plan"}`,
		`{"t":-,"k":"plan"}`,
		`{"t":1,"k":"plan","fail":1}`,
		`{"t":1,"k":"plan","fail":tru}`,
		`{"t":1,"k":"plan",}`,
		`{"t":1 "k":"plan"}`,
		`{"t":1,"k":"plan"} x`,
		`{"t":1,"k":"plan"}{}`,
		`{"t":1,"k":"plan"`,
		`{"t":1,"k":"pl`,
		`{"t":1,"k":"a\qb"}`,
		"{\"t\":1,\"k\":\"pl\x01an\"}",
		`{}`,
		`[1]`,
		`null`,
		`"plan"`,
	} {
		if _, err := ReadJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
	tr, err := ReadJSONL(strings.NewReader("\n \t\r\n\n"))
	if err != nil || tr.Len() != 0 {
		t.Fatalf("blank lines: %v, %d events", err, tr.Len())
	}
}

var allKinds = []Kind{TaskStart, TaskEnd, MigrationStart, MigrationEnd, Plan,
	FaultInject, MigrationRetry, TierQuarantine, TierReadmit}

func TestParseKind(t *testing.T) {
	for _, k := range allKinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%s) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind parsed")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range allKinds {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("missing name for %d", int(k))
		}
	}
}

// TestJSONLRoundTripFaultKinds extends the serialization pin to the
// fault and resilience events: inject/retry/quarantine/readmit records
// must survive a parse and re-serialize byte-identically, tier names
// included.
func TestJSONLRoundTripFaultKinds(t *testing.T) {
	tr := &Trace{}
	degrade := tr.must("degrade")
	tr.Add(Event{Time: 0.5, Kind: FaultInject, Label: degrade, To: mem.InDRAM, OK: true})
	tr.Add(Event{Time: 0.6, Kind: MigrationRetry, Obj: 3, Chunk: 1, To: mem.InDRAM, Bytes: 1 << 20, OK: true})
	tr.Add(Event{Time: 0.7, Kind: MigrationRetry, Obj: 3, Chunk: 1, To: mem.InDRAM, Bytes: 1 << 20})
	tr.Add(Event{Time: 0.8, Kind: TierQuarantine, To: mem.InDRAM, OK: true})
	tr.Add(Event{Time: 0.9, Kind: TierReadmit, To: mem.InDRAM, OK: true})
	tr.Add(Event{Time: 1.0, Kind: FaultInject, Label: degrade, To: mem.InDRAM})

	var first strings.Builder
	if err := tr.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadJSONL(strings.NewReader(first.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, tr) {
		t.Fatalf("parsed trace differs:\n%+v\nwant:\n%+v", parsed, tr)
	}
	var second strings.Builder
	if err := parsed.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("re-serialization not byte-identical:\n%svs:\n%s", first.String(), second.String())
	}
	// The To tier must be serialized for every fault kind, not dropped
	// by the migration-only gate.
	for _, line := range strings.Split(strings.TrimSpace(first.String()), "\n") {
		if !strings.Contains(line, `"to":`) {
			t.Fatalf("line lost its tier: %s", line)
		}
	}
}

// TestEventLayout: an Event takes at most 64 bytes and holds no pointer,
// so a run's event table costs the garbage collector nothing to scan.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 64 {
		t.Errorf("an Event takes %d bytes, want at most 64", n)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
}

// TestNameTable: Intern gives each distinct string one Name, the empty
// string the zero Name, and fails once the table holds MaxNames names;
// Name reads the table back, and Reset empties it.
func TestNameTable(t *testing.T) {
	var tr Trace
	if n := tr.must(""); n != 0 || tr.NameRoom() != MaxNames {
		t.Fatalf("the empty string interned as %d, room %d", n, tr.NameRoom())
	}
	for i := 0; i < MaxNames; i++ {
		s := strconv.Itoa(i)
		if n := tr.must(s); int(n) != i+1 || tr.Name(n) != s {
			t.Fatalf("%q interned as %d, reads back %q", s, n, tr.Name(n))
		}
	}
	for _, i := range []int{0, 1, scanNames, MaxNames - 1} {
		if n := tr.must(strconv.Itoa(i)); int(n) != i+1 {
			t.Fatalf("%d interned again as %d", i, n)
		}
	}
	if _, err := tr.Intern("one more"); err == nil || !strings.Contains(err.Error(), "more than 65535 distinct names") {
		t.Fatalf("a full table took one more name: %v", err)
	}
	if tr.NameRoom() != 0 || tr.Name(MaxNames) != strconv.Itoa(MaxNames-1) || tr.Name(0) != "" {
		t.Fatalf("room %d, last name %q", tr.NameRoom(), tr.Name(MaxNames))
	}
	tr.Reset()
	if tr.NameRoom() != MaxNames || tr.Name(1) != "" || tr.must("x") != 1 {
		t.Fatalf("after Reset: room %d, Name(1) %q", tr.NameRoom(), tr.Name(1))
	}
}

// TestReadJSONLNameCap: a recording naming more than MaxNames distinct
// strings fails at the line of the first name past the cap, whether it
// is a task kind or a label, and one naming exactly MaxNames reads.
func TestReadJSONLNameCap(t *testing.T) {
	var in bytes.Buffer
	for i := 0; i < MaxNames-1; i++ {
		fmt.Fprintf(&in, "{\"t\":1,\"k\":\"plan\",\"label\":\"n%d\"}\n", i)
	}
	fmt.Fprintf(&in, "{\"t\":1,\"k\":\"task-start\",\"tkind\":\"n0\",\"label\":\"last\"}\n")
	full := in.Len()
	tr, err := ReadJSONL(bytes.NewReader(in.Bytes()))
	if err != nil || tr.NameRoom() != 0 || tr.Name(tr.Events[MaxNames-1].Label) != "last" {
		t.Fatalf("%d distinct names: %v", MaxNames, err)
	}
	for _, line := range []string{
		`{"t":1,"k":"task-end","tkind":"new"}`,
		`{"t":1,"k":"task-end","tkind":"n1","label":"new"}`,
		`{"t":1,"k":"fault","label":"new","to":"DRAM"}`,
	} {
		in.Truncate(full)
		in.WriteString("{\"t\":2,\"k\":\"dispatch\",\"tkind\":\"not an event's\"}\n" + line + "\n")
		_, err := ReadJSONL(bytes.NewReader(in.Bytes()))
		want := fmt.Sprintf("trace: line %d: more than %d distinct names", MaxNames+2, MaxNames)
		if err == nil || err.Error() != want {
			t.Errorf("%s after a full table: error %v, want %q", line, err, want)
		}
	}
}
