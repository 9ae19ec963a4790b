package workloads

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/task"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("only %d workloads registered", len(all))
	}
	apps := Apps()
	if len(apps) != 14 {
		t.Fatalf("%d app workloads, want 14", len(apps))
	}
	if _, err := ByName("cholesky"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown workload found")
	}
}

// TestAllGraphsValidate builds every workload at default simulation scale
// and checks the structural invariants.
func TestAllGraphsValidate(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			b := s.Build(Params{})
			if err := b.Graph.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(b.Graph.Tasks) == 0 {
				t.Fatal("no tasks")
			}
			if len(b.Graph.Objects) == 0 {
				t.Fatal("no objects")
			}
			if b.Check != nil {
				t.Fatal("Check attached without kernels")
			}
		})
	}
}

// TestAllKernelsCorrect executes every workload's real kernels on the
// work-stealing pool and runs its numerical check.
func TestAllKernelsCorrect(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			b := s.Build(Params{Kernels: true})
			if err := b.Graph.Validate(); err != nil {
				t.Fatal(err)
			}
			if b.Check == nil {
				t.Fatal("no Check with kernels enabled")
			}
			if err := exec.NewPool(4).Run(b.Graph); err != nil {
				t.Fatal(err)
			}
			if err := b.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelsCorrectSingleWorker reruns two representative workloads
// serially: dependence-order execution must give identical results.
func TestKernelsCorrectSingleWorker(t *testing.T) {
	for _, name := range []string{"cholesky", "cg"} {
		b, _ := ByName(name)
		built := b.Build(Params{Kernels: true})
		if err := exec.NewPool(1).Run(built.Graph); err != nil {
			t.Fatal(err)
		}
		if err := built.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScaleChangesSize(t *testing.T) {
	small := buildCholesky(Params{Scale: 4}).Graph
	large := buildCholesky(Params{Scale: 8}).Graph
	if len(large.Tasks) <= len(small.Tasks) {
		t.Fatal("scale did not grow the graph")
	}
}

// TestMaxScale builds every capped workload at its cap: the graph must
// validate with positive object sizes and a footprint that fits in an
// int64, and one scale more must be refused. fft, whose sizes are
// powers of two of its scale, must be capped.
func TestMaxScale(t *testing.T) {
	if s, _ := ByName("fft"); s.MaxScale == 0 {
		t.Fatal("fft has no MaxScale")
	}
	for _, s := range All() {
		if s.MaxScale == 0 {
			continue
		}
		g := s.Build(Params{Scale: s.MaxScale}).Graph
		if err := g.Validate(); err != nil {
			t.Fatalf("%s at scale %d: %v", s.Name, s.MaxScale, err)
		}
		var total int64
		for _, o := range g.Objects {
			if o.Size <= 0 || total+o.Size < total {
				t.Fatalf("%s at scale %d: object %s size %d overflows (footprint so far %d)", s.Name, s.MaxScale, o.Name, o.Size, total)
			}
			total += o.Size
		}
		if err := s.CheckScale(s.MaxScale); err != nil {
			t.Fatalf("%s: its own cap refused: %v", s.Name, err)
		}
		if err := s.CheckScale(s.MaxScale + 1); err == nil {
			t.Fatalf("%s: scale %d accepted above the cap", s.Name, s.MaxScale+1)
		}
	}
}

func TestDefaultFootprintsAreHMSScale(t *testing.T) {
	// Application footprints must be large enough that a 256 MB DRAM
	// cannot hold everything (otherwise the experiments degenerate).
	for _, s := range Apps() {
		if s.Name == "nqueens" {
			continue // the control workload is deliberately tiny
		}
		g := s.Build(Params{}).Graph
		var total int64
		for _, o := range g.Objects {
			total += o.Size
		}
		if total < 64*mem.MB {
			t.Errorf("%s: footprint %d MB too small", s.Name, total/mem.MB)
		}
	}
}

func TestTrafficModelsArePositive(t *testing.T) {
	for _, s := range All() {
		g := s.Build(Params{}).Graph
		var loads, stores int64
		for _, tk := range g.Tasks {
			for _, a := range tk.Accesses {
				loads += a.Loads
				stores += a.Stores
				if a.MLP < 1 {
					t.Fatalf("%s: MLP < 1", s.Name)
				}
			}
		}
		if loads == 0 {
			t.Errorf("%s: no load traffic", s.Name)
		}
		if stores == 0 && s.Name != "pchase" {
			t.Errorf("%s: no store traffic", s.Name)
		}
	}
}

// TestStreamIsBandwidthBound and pchase latency-bound: the calibration
// workloads must sit at the extremes of the MLP spectrum.
func TestMicrobenchmarkCharacter(t *testing.T) {
	stream := must(t, "stream").Build(Params{}).Graph
	for _, tk := range stream.Tasks {
		for _, a := range tk.Accesses {
			if a.MLP < 8 {
				t.Fatal("stream access with low MLP")
			}
		}
	}
	chase := must(t, "pchase").Build(Params{}).Graph
	for _, tk := range chase.Tasks {
		for _, a := range tk.Accesses {
			if a.MLP != 1 {
				t.Fatal("pchase access with MLP != 1")
			}
		}
	}
	// The chase chain is strictly serial.
	for i, tk := range chase.Tasks {
		if i > 0 && len(tk.Deps()) == 0 {
			t.Fatal("pchase tasks are not chained")
		}
	}
}

// TestCholeskyGraphShape checks the dependence structure of the first
// panel: every trsm of column 0 depends on the potrf, and the final
// task count matches the closed form.
func TestCholeskyGraphShape(t *testing.T) {
	s := 4
	g := buildCholesky(Params{Scale: s}).Graph
	want := 0
	for k := 0; k < s; k++ {
		want++                                // potrf
		want += s - k - 1                     // trsm
		want += s - k - 1                     // syrk
		want += (s - k - 1) * (s - k - 2) / 2 // gemm
	}
	if len(g.Tasks) != want {
		t.Fatalf("cholesky tasks = %d, want %d", len(g.Tasks), want)
	}
	potrf := g.Task(0)
	if potrf.Kind != "potrf" || len(potrf.Deps()) != 0 {
		t.Fatal("task 0 should be the root potrf")
	}
	for _, id := range potrf.Succs() {
		succ := g.Task(id)
		if succ.Kind != "trsm" && succ.Kind != "potrf" {
			t.Fatalf("potrf successor of kind %s", succ.Kind)
		}
	}
}

// TestSparseLUIsSparse: the sparse variant must have meaningfully fewer
// tasks than dense LU at the same scale.
func TestSparseLUIsSparse(t *testing.T) {
	dense := buildLU(Params{Scale: 8}).Graph
	sparse := buildSparseLU(Params{Scale: 8}).Graph
	if len(sparse.Tasks) >= len(dense.Tasks) {
		t.Fatalf("sparselu %d tasks vs lu %d", len(sparse.Tasks), len(dense.Tasks))
	}
}

// TestHeatIterativeStructure: the heat graph must have cross-iteration
// dependences (a band task depends on the previous iteration).
func TestHeatIterativeStructure(t *testing.T) {
	g := buildHeat(Params{Scale: 3}).Graph
	bands := 16
	// Task bands+1 (second iteration, band 1) must depend on iteration
	// one's bands 0..2.
	tk := g.Task(task.TaskID(bands + 1))
	if len(tk.Deps()) < 2 {
		t.Fatalf("iteration-2 band has deps %v", tk.Deps())
	}
}

func must(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
