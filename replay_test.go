package tahoe

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestReplayFidelity pins the replay subsystem's central guarantee at
// the public API: replaying a recording under its own machine and
// policy reproduces the original run's Result bit for bit — makespan,
// migration count, bytes moved, energy, everything — across workloads
// with very different scheduling and migration behaviour.
func TestReplayFidelity(t *testing.T) {
	for _, name := range []string{"cholesky", "heat", "cg"} {
		t.Run(name, func(t *testing.T) {
			// Each workload records and replays against its own graph and
			// trace, so the fidelity checks fan out across test workers
			// without affecting the bit-for-bit comparison.
			t.Parallel()
			w, err := BuildWorkload(name, WorkloadParams{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(NewHMS(DRAM(), NVMBandwidth(0.5), 96*MB))
			cfg.Policy = Tahoe
			orig, rec, err := Record(w.Graph, cfg)
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			again, err := Replay(w.Graph, cfg, rec)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if math.Float64bits(orig.Time) != math.Float64bits(again.Time) {
				t.Errorf("makespan diverged: %v vs %v", orig.Time, again.Time)
			}
			if orig != again {
				t.Errorf("replayed result differs:\nrecorded: %+v\nreplayed: %+v", orig, again)
			}
		})
	}
}

// TestReplayFidelityWithFaults extends the fidelity pin to faulty runs:
// a run under an injected fault schedule replays bit-for-bit, and the
// schedule survives the save/load round trip through the recording's
// metadata — the replay reconstructs it from the spec string, with no
// schedule set on the replay config.
func TestReplayFidelityWithFaults(t *testing.T) {
	w, err := BuildWorkload("heat", WorkloadParams{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(NewHMS(DRAM(), NVMBandwidth(0.5), 96*MB))
	cfg.Policy = Tahoe
	cfg.Faults, err = ParseFaultSpec("rate=8,seed=5,horizon=0.4")
	if err != nil {
		t.Fatal(err)
	}
	orig, rec, err := Record(w.Graph, cfg)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if orig.FaultEvents == 0 {
		t.Fatal("schedule injected nothing; the test is vacuous")
	}
	if rec.Meta.Faults != cfg.Faults.Spec {
		t.Fatalf("recording metadata lost the fault spec: %q", rec.Meta.Faults)
	}
	var buf strings.Builder
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecording(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Faults = nil // must come back from the recording
	again, err := Replay(w.Graph, replayCfg, loaded)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if math.Float64bits(orig.Time) != math.Float64bits(again.Time) {
		t.Errorf("faulty makespan diverged: %v vs %v", orig.Time, again.Time)
	}
	if orig != again {
		t.Errorf("faulty replay differs:\nrecorded: %+v\nreplayed: %+v", orig, again)
	}
}

// TestReplayFidelityClusterFaults pins the cluster-scale replay
// guarantee: a rank of a faulty cluster run — whose schedule was derived
// from the shared cluster seed and carries a "cluster:...;rank=N" spec —
// records, saves, loads, and replays bit for bit with no schedule on the
// replay config. The derived schedule comes back from the recording's
// spec string alone, so any rank of a (seed, schedule) cluster run is
// reconstructible from its recording.
func TestReplayFidelityClusterFaults(t *testing.T) {
	d, err := workloads.DistributedByName("heat")
	if err != nil {
		t.Fatal(err)
	}
	const rank, ranks = 1, 4
	p := workloads.Params{Scale: 4}
	g := d.BuildRank(rank, ranks, p).Graph
	cfg := DefaultConfig(NewHMS(DRAM(), NVMBandwidth(0.5), 64*MB))
	cfg.Policy = Tahoe
	// Generate the cluster schedule against the rank's own fault-free
	// horizon so device faults land inside the run.
	base, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 0.8 * base.Time
	cs := fault.RandomCluster(5, 1/horizon, 10/horizon, horizon, 2, 2, 2)
	cfg.Faults = cs.RankSchedule(rank)
	if !strings.HasPrefix(cfg.Faults.Spec, "cluster:") {
		t.Fatalf("derived schedule spec %q lacks cluster: prefix", cfg.Faults.Spec)
	}

	orig, rec, err := Record(g, cfg)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if orig.FaultEvents == 0 {
		t.Fatal("derived schedule injected nothing; the test is vacuous")
	}
	if rec.Meta.Faults != cfg.Faults.Spec {
		t.Fatalf("recording metadata lost the cluster spec: %q", rec.Meta.Faults)
	}
	var buf strings.Builder
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecording(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Faults = nil // must come back from the cluster rank spec
	again, err := Replay(g, replayCfg, loaded)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if math.Float64bits(orig.Time) != math.Float64bits(again.Time) {
		t.Errorf("cluster-faulty makespan diverged: %v vs %v", orig.Time, again.Time)
	}
	if orig != again {
		t.Errorf("cluster-faulty replay differs:\nrecorded: %+v\nreplayed: %+v", orig, again)
	}
}

// TestReplaySaveLoadPublicAPI exercises the re-exported persistence
// path: a recording saved and re-loaded replays identically to the
// in-memory one.
func TestReplaySaveLoadPublicAPI(t *testing.T) {
	w, err := BuildWorkload("cg", WorkloadParams{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(NewHMS(DRAM(), NVMBandwidth(0.5), 96*MB))
	cfg.Policy = Tahoe
	orig, rec, err := Record(w.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecording(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Replay(w.Graph, cfg, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if orig != again {
		t.Fatalf("loaded replay differs:\nrecorded: %+v\nreplayed: %+v", orig, again)
	}
}

// TestTraceJSONLAllocs guards what a warm Save plus Load of
// BenchmarkTraceJSONL's recording allocates: the loaded recording, its
// trace with its two tables and name table, the names and the header's
// strings, and nothing that grows with the recording beyond the tables:
// the saved lines reach their writer in one Write, and Load decodes them
// from a kept buffer. It counts with the GC on, after one collection.
func TestTraceJSONLAllocs(t *testing.T) {
	rec := traceJSONLRecording(t)
	var saved bytes.Buffer
	w := &countWriter{w: &saved}
	var in bytes.Reader
	roundTrip := func() {
		saved.Reset()
		if err := rec.Save(w); err != nil {
			t.Fatal(err)
		}
		in.Reset(saved.Bytes())
		if _, err := LoadRecording(&in); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the kept buffers and size saved
	runtime.GC()
	w.writes = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	allocs := testing.AllocsPerRun(runs, roundTrip)
	runtime.ReadMemStats(&after)
	if w.writes != runs+1 {
		t.Errorf("%d Saves made %d Writes, want one each", runs+1, w.writes)
	}
	tables := len(rec.Trace.Events)*int(unsafe.Sizeof(TraceEvent{})) + len(rec.Trace.Dispatches)*int(unsafe.Sizeof(trace.Dispatch{}))
	bytesPerOp := int(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%d bytes saved; %.0f allocs and %d bytes per round trip, %d of them the tables", saved.Len(), allocs, bytesPerOp, tables)
	if allocs > 17 {
		t.Errorf("a round trip allocates %.0f times, want at most 17", allocs)
	}
	if bytesPerOp > tables+4<<10 {
		t.Errorf("a round trip allocates %d bytes, want at most the tables' %d and 4 KiB", bytesPerOp, tables)
	}
}

// countWriter counts the Writes it passes on.
type countWriter struct {
	w      io.Writer
	writes int
}

func (c *countWriter) Write(b []byte) (int, error) {
	c.writes++
	return c.w.Write(b)
}
