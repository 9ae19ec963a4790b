package replay

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/task"
	"repro/internal/workloads"
)

func buildGraph(t *testing.T, name string) *task.Graph {
	t.Helper()
	s, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s.Build(workloads.Params{}).Graph
}

func testConfig(p core.Policy) core.Config {
	cfg := core.DefaultConfig(mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 96*mem.MB))
	cfg.Policy = p
	return cfg
}

func TestRecordCapturesDispatches(t *testing.T) {
	g := buildGraph(t, "cg")
	res, rec, err := Record(g, testConfig(core.Tahoe))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != len(g.Tasks) {
		t.Fatalf("ran %d of %d tasks", res.Tasks, len(g.Tasks))
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Trace.Dispatches) < len(g.Tasks) {
		t.Fatalf("%d dispatches for %d tasks", len(rec.Trace.Dispatches), len(g.Tasks))
	}
	if rec.Meta.Workload != g.Name || rec.Meta.Policy != "Tahoe" || rec.Meta.Tasks != len(g.Tasks) {
		t.Fatalf("meta = %+v", rec.Meta)
	}
	// Every task appears in the dispatch order at least once.
	seen := map[task.TaskID]bool{}
	for _, id := range rec.Order() {
		seen[id] = true
	}
	if len(seen) != len(g.Tasks) {
		t.Fatalf("dispatch order covers %d of %d tasks", len(seen), len(g.Tasks))
	}
}

// TestSameConfigReplayBitIdentical is the package-level fidelity check
// (the root package's TestReplayFidelity extends it to more workloads):
// replaying under the recording's own machine and policy must reproduce
// the Result exactly, bit for bit.
func TestSameConfigReplayBitIdentical(t *testing.T) {
	g := buildGraph(t, "heat")
	cfg := testConfig(core.Tahoe)
	orig, rec, err := Record(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Replay(g, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(orig.Time) != math.Float64bits(again.Time) {
		t.Fatalf("makespan diverged: %g vs %g", orig.Time, again.Time)
	}
	if orig != again {
		t.Fatalf("replayed result differs:\n%+v\nvs:\n%+v", orig, again)
	}
}

// TestCounterfactualReplays: the recorded schedule must complete under
// machines and policies it was not recorded with.
func TestCounterfactualReplays(t *testing.T) {
	g := buildGraph(t, "cg")
	_, rec, err := Record(g, testConfig(core.Tahoe))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Policy{core.DRAMOnly, core.NVMOnly, core.XMem} {
		res, err := Replay(g, testConfig(p), rec)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Tasks != len(g.Tasks) {
			t.Fatalf("%v: completed %d of %d", p, res.Tasks, len(g.Tasks))
		}
	}
	// A slower NVM: same schedule, worse machine.
	slow := testConfig(core.Tahoe)
	slow.HMS = mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.25), 96*mem.MB)
	res, err := Replay(g, slow, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != len(g.Tasks) {
		t.Fatalf("slow NVM: completed %d of %d", res.Tasks, len(g.Tasks))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := buildGraph(t, "cg")
	_, rec, err := Record(g, testConfig(core.Tahoe))
	if err != nil {
		t.Fatal(err)
	}
	var first strings.Builder
	if err := rec.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(strings.NewReader(first.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, rec) {
		t.Fatalf("loaded recording differs: meta %+v vs %+v, %d/%d events, %d/%d dispatches",
			loaded.Meta, rec.Meta,
			len(loaded.Trace.Events), len(rec.Trace.Events),
			len(loaded.Trace.Dispatches), len(rec.Trace.Dispatches))
	}
	var second strings.Builder
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatal("save → load → save not byte-identical")
	}
	// And a loaded recording replays with full fidelity too.
	cfg := testConfig(core.Tahoe)
	orig, err := Replay(g, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Replay(g, cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if orig != again {
		t.Fatalf("loaded replay differs: %+v vs %+v", orig, again)
	}
}

func TestReplayRejectsBadInput(t *testing.T) {
	g := buildGraph(t, "cg")
	_, rec, err := Record(g, testConfig(core.Tahoe))
	if err != nil {
		t.Fatal(err)
	}
	other := buildGraph(t, "heat")
	if _, err := Replay(other, testConfig(core.Tahoe), rec); err == nil {
		t.Fatal("replay accepted the wrong graph")
	}
	empty := &Recording{Meta: rec.Meta, Trace: nil}
	if _, err := Replay(g, testConfig(core.Tahoe), empty); err == nil {
		t.Fatal("replay accepted a trace-less recording")
	}
	if _, err := Load(strings.NewReader("{\"k\":\"dispatch\"}\n")); err == nil {
		t.Fatal("Load accepted input without a meta header")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("Load accepted empty input")
	}
	// Dispatches of tasks outside the graph: a negative one used to
	// panic inside the replay scheduler.
	var saved strings.Builder
	if err := rec.Save(&saved); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-3, len(g.Tasks)} {
		in := saved.String() + fmt.Sprintf(`{"t":0,"k":"dispatch","task":%d}`, bad) + "\n"
		loaded, err := Load(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(g, testConfig(core.Tahoe), loaded); err == nil {
			t.Fatalf("replay accepted a dispatch of task %d", bad)
		}
	}
}

// TestRecordingRejectsWorkerCount: a replay that inherits the recorded
// worker count (cfg.Workers == 0) used to size per-worker scheduler
// state from the file unchecked.
func TestRecordingRejectsWorkerCount(t *testing.T) {
	g := buildGraph(t, "cg")
	_, rec, err := Record(g, testConfig(core.Tahoe))
	if err != nil {
		t.Fatal(err)
	}
	var saved strings.Builder
	if err := rec.Save(&saved); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, core.MaxWorkers + 1, 1099511627776} {
		in := strings.Replace(saved.String(), fmt.Sprintf(`"workers":%d`, rec.Meta.Workers), fmt.Sprintf(`"workers":%d`, n), 1)
		loaded, err := Load(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Validate(); err == nil || !strings.Contains(err.Error(), "workers") {
			t.Errorf("workers %d: Validate = %v, want a worker-count error", n, err)
		}
		cfg := testConfig(core.Tahoe)
		cfg.Workers = 0
		if _, err := Replay(g, cfg, loaded); err == nil {
			t.Errorf("workers %d: replay accepted", n)
		}
	}
}

// TestReplayRejectsHugeFaultSpec: a recording's fault spec is parsed on
// replay; one asking for 1e9 events is refused, not allocated.
func TestReplayRejectsHugeFaultSpec(t *testing.T) {
	g := buildGraph(t, "cg")
	_, rec, err := Record(g, testConfig(core.Tahoe))
	if err != nil {
		t.Fatal(err)
	}
	rec.Meta.Faults = "rate=1e9,horizon=1"
	var saved strings.Builder
	if err := rec.Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(strings.NewReader(saved.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(g, testConfig(core.Tahoe), loaded); err == nil {
		t.Fatal("replay accepted a recorded spec asking for 1e9 fault events")
	}
}

// TestLoadErrorNamesFileLine: a bad record is reported at its line in
// the file, header included, with one "trace:" prefix.
func TestLoadErrorNamesFileLine(t *testing.T) {
	in := `{"k":"meta","workload":"cg","policy":"Tahoe","workers":1,"tasks":1}
{"t":0,"k":"task-start"}
{"t":1,"k":"bogus"}
`
	_, err := Load(strings.NewReader(in))
	if err == nil || !strings.HasPrefix(err.Error(), "trace: line 3: ") || strings.Count(err.Error(), "trace:") != 1 {
		t.Fatalf("error = %v, want one naming line 3 with one prefix", err)
	}
}

// jsonRecordings returns the testdata recordings, which the
// encoding/json codec saved: cholesky at scale 2 on two tiers, and on
// three tiers under an injected fault schedule.
func jsonRecordings(tb testing.TB) map[string][]byte {
	paths, err := filepath.Glob("testdata/*.jsonl")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no recordings in testdata: %v", err)
	}
	recs := map[string][]byte{}
	for _, path := range paths {
		if recs[path], err = os.ReadFile(path); err != nil {
			tb.Fatal(err)
		}
	}
	return recs
}

// TestLoadEncodingJSONRecordings: recordings saved by the encoding/json codec
// load and save back byte-identically.
func TestLoadEncodingJSONRecordings(t *testing.T) {
	for path, want := range jsonRecordings(t) {
		rec, err := Load(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var got bytes.Buffer
		if err := rec.Save(&got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: save after load is not byte-identical", path)
		}
	}
}

// FuzzLoad: no recording makes Load or Replay panic. The graph (the
// testdata recordings' cholesky at scale 2), the three-tier machine
// (every seed replays on it) and the worker count are fixed, and the
// recording varies. A recorded fault spec is replayed only when it is a
// seed's; any other input replays under an empty schedule, because a
// mutated spec can ask for billions of fault events. A non-nil schedule
// also makes the run check its heap invariants at the end.
func FuzzLoad(f *testing.F) {
	s, err := workloads.ByName("cholesky")
	if err != nil {
		f.Fatal(err)
	}
	g := s.Build(workloads.Params{Scale: 2}).Graph
	seedSpecs := map[string]bool{}
	for path, b := range jsonRecordings(f) {
		rec, err := Load(bytes.NewReader(b))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		if rec.Meta.Faults != "" {
			seedSpecs[rec.Meta.Faults] = true
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		rec, err := Load(bytes.NewReader(in))
		if err != nil {
			return
		}
		cfg := core.DefaultConfig(mem.DRAMCXLNVM(4*mem.MB, 8*mem.MB))
		cfg.Workers = 2
		if !seedSpecs[rec.Meta.Faults] {
			cfg.Faults = &fault.Schedule{}
		}
		if res, err := Replay(g, cfg, rec); err == nil && res.Tasks != len(g.Tasks) {
			t.Fatalf("replay ran %d of %d tasks", res.Tasks, len(g.Tasks))
		}
	})
}
