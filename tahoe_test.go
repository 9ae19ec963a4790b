package tahoe

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	h := NewHMS(DRAM(), NVMBandwidth(0.5), 128*MB)
	f, err := Calibrate(h, DefaultProfiler())
	if err != nil {
		t.Fatal(err)
	}
	if f.CFBw <= 0 || f.CFLat <= 0 {
		t.Fatalf("bad factors: %+v", f)
	}
	w, err := BuildWorkload("cg", WorkloadParams{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(h)
	cfg.CFBw, cfg.CFLat = f.CFBw, f.CFLat
	res, err := Run(w.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Tasks != len(w.Graph.Tasks) {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestPublicAPICustomGraph(t *testing.T) {
	b := NewGraphBuilder("api")
	x := b.Object("x", 64*MB)
	y := b.Object("y", 64*MB)
	n := int64(64 * MB / 64)
	ran := 0
	for i := 0; i < 20; i++ {
		b.Submit("rw", 1e-4, []Access{
			{Obj: x, Mode: In, Loads: n, MLP: 8},
			{Obj: y, Mode: InOut, Loads: n / 4, Stores: n / 4, MLP: 4},
		}, func() { ran++ })
	}
	g := b.Build()

	// Real parallel execution.
	if err := Execute(g, 4); err != nil {
		t.Fatal(err)
	}
	if ran != 20 {
		t.Fatalf("ran %d of 20", ran)
	}

	// Simulated execution under the runtime.
	h := NewHMS(DRAM(), PCRAM(), 64*MB)
	cfg := DefaultConfig(h)
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 20 {
		t.Fatalf("simulated %d tasks", res.Tasks)
	}
}

func TestBuildWorkloadUnknown(t *testing.T) {
	if _, err := BuildWorkload("no-such-thing", WorkloadParams{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// Above fft's MaxScale its sizes overflow; the build used to panic.
	if _, err := BuildWorkload("fft", WorkloadParams{Scale: 64}); err == nil {
		t.Fatal("fft scale 64 accepted")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 24 {
		t.Fatalf("%d experiments registered, want 24", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"T1", "T2", "E1", "E4", "E7", "E12", "E18", "E19", "E22"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, err := ExperimentByID("E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentTablesWellFormed(t *testing.T) {
	// Quick instances of a representative subset; every row must have the
	// declared number of columns and non-empty first cell.
	for _, id := range []string{"T1", "T2", "E7", "E12", "E13", "E15", "E16"} {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Run(ExpOptions{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("%s: row width %d != %d columns", id, len(row), len(tb.Columns))
			}
			if row[0] == "" {
				t.Fatalf("%s: empty row label", id)
			}
		}
		var sb strings.Builder
		if err := tb.Render(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), tb.ID) {
			t.Fatalf("%s: render lost the ID", id)
		}
	}
}

func TestExperimentDeterminism(t *testing.T) {
	run := func() string {
		e, _ := ExperimentByID("E7")
		tb, err := e.Run(ExpOptions{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := tb.CSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if run() != run() {
		t.Fatal("experiment output not deterministic")
	}
}

// TestExperimentParallelByteIdentical pins the parallel-harness
// contract: the serial path and an oversubscribed worker pool render
// byte-identical tables, because cells are independent deterministic
// simulations and rows are assembled in declaration order.
func TestExperimentParallelByteIdentical(t *testing.T) {
	render := func(id string, workers int) string {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Run(ExpOptions{Quick: true, ParallelCells: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := tb.CSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for _, id := range []string{"E1", "E3", "E4", "E12", "E15", "E17"} {
		serial := render(id, 1)
		parallel := render(id, 8)
		if serial != parallel {
			t.Fatalf("%s: parallel table differs from serial\nserial:\n%s\nparallel:\n%s", id, serial, parallel)
		}
	}
}

// TestExperimentShapes asserts the qualitative results the reproduction
// claims (the EXPERIMENTS.md contract), on quick instances.
func TestExperimentShapes(t *testing.T) {
	// E1: slowdown grows monotonically with bandwidth throttling for the
	// bandwidth-bound workloads.
	e, _ := ExperimentByID("E1")
	tb, err := e.Run(ExpOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		var prev float64 = 0.99
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v < prev-0.02 {
				t.Fatalf("E1 %s: non-monotonic slowdown %v", row[0], row)
			}
			prev = v
		}
	}

	// E22: graceful degradation keeps its order at every swept
	// node-failure rate — Tahoe ≤ FirstTouch < NVM-only normalized
	// makespan, failures included.
	e, _ = ExperimentByID("E22")
	tb, err = e.Run(ExpOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		cell := func(i int) float64 {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				t.Fatalf("E22: bad cell %q", row[i])
			}
			return v
		}
		ta, ft, nv := cell(2), cell(3), cell(4)
		if !(ta <= ft && ft < nv) {
			t.Fatalf("E22 rate %s: ordering violated: Tahoe %.3f, FirstTouch %.3f, NVM-only %.3f",
				row[0], ta, ft, nv)
		}
	}
}

// TestFFTOptaneManaged covers the fft workload on the Optane machine in
// both read/write-modeling modes (it began life as a debug print loop):
// the managed run must plan, migrate, clearly beat NVM-only, and be
// deterministic run to run.
func TestFFTOptaneManaged(t *testing.T) {
	h := hmsOptane()
	w, err := BuildWorkload("fft", WorkloadParams{})
	if err != nil {
		t.Fatal(err)
	}
	nvm, err := core.Run(w.Graph, expConfig(h, core.NVMOnly))
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range []bool{true, false} {
		cfg := expConfig(h, core.Tahoe)
		cfg.Tech.DistinguishRW = rw
		res, err := core.Run(w.Graph, cfg)
		if err != nil {
			t.Fatalf("rw=%v: %v", rw, err)
		}
		if res.Tasks != len(w.Graph.Tasks) {
			t.Fatalf("rw=%v: completed %d of %d tasks", rw, res.Tasks, len(w.Graph.Tasks))
		}
		if res.PlanKind == "" {
			t.Fatalf("rw=%v: no plan", rw)
		}
		if res.Migration.Migrations == 0 || res.Migration.BytesMoved == 0 {
			t.Fatalf("rw=%v: no migrations (%+v)", rw, res.Migration)
		}
		if res.Time >= nvm.Time*0.5 {
			t.Fatalf("rw=%v: managed %g vs NVM-only %g, want < half", rw, res.Time, nvm.Time)
		}
		again, err := core.Run(w.Graph, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(again.Time) != math.Float64bits(res.Time) ||
			again.Migration != res.Migration || again.PlanKind != res.PlanKind {
			t.Fatalf("rw=%v: run not deterministic: %+v vs %+v", rw, res, again)
		}
	}
}
