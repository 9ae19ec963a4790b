package cliutil

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/mem"
	"repro/internal/task"
	"repro/internal/workloads"
)

// TestResolveDefaults: a request naming only a workload resolves to the
// default configuration on the default machine, and every other field
// lands in the configuration it names.
func TestResolveDefaults(t *testing.T) {
	run, err := (&RunRequest{Workload: "heat"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	h, err := MachineSpec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run.Config, core.DefaultConfig(h)) {
		t.Fatalf("resolved %+v\nwant the default %+v", run.Config, core.DefaultConfig(h))
	}
	if run.Workload.Name != "heat" || run.Scale != 0 || run.Graph != nil {
		t.Fatalf("graph recipe %+v", run)
	}

	run, err = (&RunRequest{
		Workload: "cg", Scale: 3, Policy: "phase", Scheduler: "fifo",
		Machine: MachineSpec{NVM: "optane", DRAMMB: 64, CXLMB: 32},
		Workers: 4, Lookahead: 2, Faults: "rate=2,seed=7,horizon=1,tiers=3", Feedback: "on",
	}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg := run.Config
	if cfg.Policy != core.PhaseBased || cfg.Scheduler != core.FIFOQueue || cfg.HMS.NumTiers() != 3 ||
		cfg.HMS.Capacity(cfg.HMS.Fastest()) != 64*mem.MB || cfg.Workers != 4 || cfg.Lookahead != 2 ||
		cfg.Faults.Empty() || cfg.Feedback != (feedback.Config{Enabled: true}) {
		t.Fatalf("resolved %+v", cfg)
	}
	if run.Workload.Name != "cg" || run.Scale != 3 {
		t.Fatalf("graph recipe %+v", run)
	}
}

// TestRunBuild: Build builds a named workload at the resolved scale and
// an inline graph as declared, in a fresh builder or the one given, and
// attaches kernels when the configuration runs them.
func TestRunBuild(t *testing.T) {
	run, err := (&RunRequest{Workload: "cholesky", Scale: 4}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := len(run.Workload.Build(workloads.Params{Scale: 4}).Graph.Tasks)
	if g := run.Build(nil).Graph; g.Name != "cholesky" || len(g.Tasks) != want {
		t.Fatalf("built %s with %d tasks, want cholesky with %d", g.Name, len(g.Tasks), want)
	}
	var b task.Builder
	if g := run.Build(&b).Graph; len(g.Tasks) != want {
		t.Fatalf("built %d tasks in a given builder, want %d", len(g.Tasks), want)
	}
	if run.Build(nil).Check != nil {
		t.Fatal("kernel check attached without RunKernels")
	}
	run.Config.RunKernels = true
	if run.Build(nil).Check == nil {
		t.Fatal("RunKernels attached no kernel check")
	}

	inline := &GraphSpec{
		Objects: []ObjectSpec{{Size: 64}, {Name: "b", Size: 128, NoChunk: true}},
		Tasks:   []TaskSpec{{Kind: "k", CPUSec: 1e-3, Accesses: []AccessSpec{{Obj: 1, Mode: "inout", Loads: 2, Stores: 1}}}},
	}
	if run, err = (&RunRequest{Graph: inline}).Resolve(); err != nil {
		t.Fatal(err)
	}
	g := run.Build(&b).Graph
	if g.Name != "inline" || len(g.Tasks) != 1 || g.Objects[0].Name != "o0" || g.Objects[1].Name != "b" ||
		g.Objects[1].Chunkable || g.Tasks[0].Accesses[0].MLP != 1 {
		t.Fatalf("inline graph built as %+v", g)
	}
}
