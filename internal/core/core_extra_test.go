package core

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/task"
	"repro/internal/trace"
)

// TestPinnedPolicy: pinning the latency-sensitive matrix of CG must beat
// pinning nothing, and an unpinned group name must leave everything in
// NVM (equal to NVM-only).
func TestPinnedPolicy(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.NVMLatency(4), 1<<40)
	tg := build(t, "cg")
	nvm := runPolicy(t, tg, h, NVMOnly, func(c *Config) { c.Workers = 1 })
	pinA := runPolicy(t, tg, h, Pinned, func(c *Config) {
		c.Workers = 1
		c.Pin = func(name string) bool { return name == "A" }
	})
	pinNone := runPolicy(t, tg, h, Pinned, func(c *Config) {
		c.Workers = 1
		c.Pin = func(name string) bool { return name == "no-such-object" }
	})
	if pinA.Time >= nvm.Time*0.9 {
		t.Fatalf("pinning A saved too little: %g vs NVM %g", pinA.Time, nvm.Time)
	}
	if pinNone.Time < nvm.Time*0.999 || pinNone.Time > nvm.Time*1.001 {
		t.Fatalf("pinning nothing should equal NVM-only: %g vs %g", pinNone.Time, nvm.Time)
	}
}

// TestPinnedRequiresSelector: the config validator catches a nil Pin.
func TestPinnedRequiresSelector(t *testing.T) {
	cfg := DefaultConfig(pressured())
	cfg.Policy = Pinned
	if err := cfg.Validate(); err == nil {
		t.Fatal("Pinned without selector accepted")
	}
}

// TestTraceIntegration: a traced run records every task exactly once,
// migration starts match ends, and the trace duration matches the result.
func TestTraceIntegration(t *testing.T) {
	h := pressured()
	tg := build(t, "wave")
	tr := &trace.Trace{}
	res := runPolicy(t, tg, h, Tahoe, func(c *Config) { c.Trace = tr })

	var starts, ends, migStarts, migEnds, plans int
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.TaskStart:
			starts++
		case trace.TaskEnd:
			ends++
		case trace.MigrationStart:
			migStarts++
		case trace.MigrationEnd:
			migEnds++
		case trace.Plan:
			plans++
		}
	}
	n := len(tg.g.Graph.Tasks)
	if starts != n || ends != n {
		t.Fatalf("task events %d/%d, want %d/%d", starts, ends, n, n)
	}
	if migStarts != migEnds {
		t.Fatalf("migration events unbalanced: %d vs %d", migStarts, migEnds)
	}
	if migEnds < res.Migration.Migrations {
		t.Fatalf("trace saw %d migration ends, result reports %d", migEnds, res.Migration.Migrations)
	}
	if plans < 1 {
		t.Fatal("no plan event recorded")
	}
	if d := tr.Duration(); d > res.Time*1.0001 || d < res.Time*0.9 {
		t.Fatalf("trace duration %g vs result %g", d, res.Time)
	}
	// Per-kind stats cover every kind in the graph.
	kinds := map[string]bool{}
	for _, tk := range tg.g.Graph.Tasks {
		kinds[tk.Kind] = true
	}
	stats := tr.ByKind()
	if len(stats) != len(kinds) {
		t.Fatalf("trace kinds %d, graph kinds %d", len(stats), len(kinds))
	}
	total := 0
	for _, s := range stats {
		total += s.Count
	}
	if total != n {
		t.Fatalf("per-kind counts sum to %d, want %d", total, n)
	}
}

// TestChunkingEnablesPartialResidency: cg's matrix exceeds half of DRAM;
// with chunking the runtime achieves partial residency, without it the
// whole object is all-or-nothing.
func TestChunkingEnablesPartialResidency(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 96*mem.MB)
	tg := build(t, "cg")

	defer func() { testHook = nil }()
	var frac float64
	var chunks int
	testHook = func(r *runner) {
		frac = r.st.TierFraction(task.ObjectID(0), r.fastTier) // "A" is object 0
		chunks = r.st.Chunks(task.ObjectID(0))
	}
	runPolicy(t, tg, h, Tahoe)
	if chunks < 2 {
		t.Fatalf("matrix not partitioned: %d chunks", chunks)
	}
	if frac <= 0 || frac >= 1 {
		t.Fatalf("expected partial residency of the matrix, got %.2f", frac)
	}

	runPolicy(t, tg, h, Tahoe, func(c *Config) { c.Tech.Chunking = false })
	if chunks != 1 {
		t.Fatalf("chunking disabled but %d chunks", chunks)
	}
	if frac != 0 && frac != 1 {
		t.Fatalf("unpartitioned object should be all-or-nothing, got %.2f", frac)
	}
}

// TestHWCacheHitRatioScalesWithDRAM: more DRAM, higher hit ratio, faster.
func TestHWCacheHitRatioScalesWithDRAM(t *testing.T) {
	tg := build(t, "heat")
	var prev float64
	for i, mb := range []int64{32, 128, 512} {
		h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), mb*mem.MB)
		r := runPolicy(t, tg, h, HWCache)
		if i > 0 && r.Time >= prev {
			t.Fatalf("HW cache did not speed up with DRAM: %g -> %g at %d MB", prev, r.Time, mb)
		}
		prev = r.Time
	}
}

// TestRandomGraphsAllPolicies fuzzes the runtime: random task graphs
// through every policy must complete, respect the DRAM bound ordering,
// and keep the placement-state invariants.
func TestRandomGraphsAllPolicies(t *testing.T) {
	defer func() { testHook = nil }()
	testHook = func(r *runner) {
		if err := r.st.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		g := randomGraph(seed)
		h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 32*mem.MB)
		var dram float64
		for _, p := range []Policy{DRAMOnly, NVMOnly, FirstTouch, XMem, HWCache, PhaseBased, Tahoe} {
			cfg := DefaultConfig(h)
			cfg.Policy = p
			res, err := Run(g, cfg)
			if err != nil {
				t.Fatalf("seed %d policy %s: %v", seed, p, err)
			}
			if res.Tasks != len(g.Tasks) {
				t.Fatalf("seed %d policy %s: incomplete", seed, p)
			}
			if p == DRAMOnly {
				dram = res.Time
			} else if res.Time < dram*0.98 {
				t.Fatalf("seed %d policy %s: %g beat DRAM-only %g", seed, p, res.Time, dram)
			}
		}
	}
}

// randomGraph builds a deterministic pseudo-random task graph with mixed
// object sizes, access modes and MLPs.
func randomGraph(seed int64) *task.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := task.NewBuilder("fuzz")
	nObj := rng.Intn(10) + 3
	objs := make([]task.ObjectID, nObj)
	for i := range objs {
		size := int64(rng.Intn(16)+1) * mem.MB
		objs[i] = b.ObjectOpt("o", size, rng.Intn(2) == 0)
	}
	kinds := []string{"ka", "kb", "kc"}
	nTasks := rng.Intn(150) + 30
	for i := 0; i < nTasks; i++ {
		var acc []task.Access
		used := map[task.ObjectID]bool{}
		for j := 0; j <= rng.Intn(3); j++ {
			o := objs[rng.Intn(nObj)]
			if used[o] {
				continue
			}
			used[o] = true
			acc = append(acc, task.Access{
				Obj:    o,
				Mode:   task.AccessMode(rng.Intn(3)),
				Loads:  int64(rng.Intn(100000)),
				Stores: int64(rng.Intn(100000)),
				MLP:    float64(1 + rng.Intn(12)),
			})
		}
		if acc == nil {
			acc = []task.Access{{Obj: objs[0], Mode: task.In, Loads: 100, MLP: 2}}
		}
		b.Submit(kinds[rng.Intn(len(kinds))], rng.Float64()*1e-4, acc, nil)
	}
	return b.Build()
}

// TestWorkloadVariationTriggersReprofile: a synthetic kind whose traffic
// genuinely changes mid-run (same pairs, different counts) must trip the
// placement-aware drift detector and re-plan.
func TestWorkloadVariationTriggersReprofile(t *testing.T) {
	b := task.NewBuilder("drifty")
	hot := b.Object("hot", 24*mem.MB)
	cold := b.Object("cold", 24*mem.MB)
	n := int64(24 * mem.MB / 64)
	// First half: tasks hammer `hot` and graze `cold`.
	for i := 0; i < 120; i++ {
		b.Submit("work", 1e-5, []task.Access{
			{Obj: hot, Mode: task.InOut, Loads: n, Stores: n / 2, MLP: 8},
			{Obj: cold, Mode: task.In, Loads: n / 64, MLP: 8},
		}, nil)
	}
	// Second half: the same kind shifts its weight to `cold`.
	for i := 0; i < 120; i++ {
		b.Submit("work", 1e-5, []task.Access{
			{Obj: hot, Mode: task.In, Loads: n / 64, MLP: 8},
			{Obj: cold, Mode: task.InOut, Loads: n, Stores: n / 2, MLP: 8},
		}, nil)
	}
	g := b.Build()
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.25), 32*mem.MB)
	cfg := DefaultConfig(h)
	cfg.Workers = 2
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nvmCfg := cfg
	nvmCfg.Policy = NVMOnly
	nvm, err := Run(g, nvmCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the exact adaptation path (drift replan or knapsack with
	// both halves modeled), the runtime must exploit the shift: at most
	// one object fits, and each half has a clear winner.
	if res.Time > nvm.Time*0.85 {
		t.Fatalf("no adaptation on shifting kind: Tahoe %g vs NVM-only %g", res.Time, nvm.Time)
	}
	if res.Migration.Migrations == 0 {
		t.Fatal("shifting working set produced no migrations")
	}
}

// TestEnergyAccounting: energy components are positive and consistent,
// a compute-bound workload is static-dominated on the HMS and cheaper
// than an all-DRAM machine of the same capacity, and more NVM traffic
// means more dynamic energy.
func TestEnergyAccounting(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.STTRAM(), 96*mem.MB)

	tg := build(t, "nqueens")
	dram := runPolicy(t, tg, h, DRAMOnly)
	hms := runPolicy(t, tg, h, NVMOnly)
	if dram.EnergyJ <= 0 || hms.EnergyJ <= 0 {
		t.Fatalf("non-positive energy: %g, %g", dram.EnergyJ, hms.EnergyJ)
	}
	if hms.EnergyStaticJ/hms.EnergyJ < 0.5 {
		t.Fatalf("compute-bound workload should be static-dominated: %g of %g",
			hms.EnergyStaticJ, hms.EnergyJ)
	}
	if hms.EnergyJ >= dram.EnergyJ {
		t.Fatalf("HMS energy %g not below all-DRAM %g on a compute-bound workload",
			hms.EnergyJ, dram.EnergyJ)
	}

	tg = build(t, "heat")
	d := runPolicy(t, tg, h, DRAMOnly)
	n := runPolicy(t, tg, h, NVMOnly)
	if n.EnergyDynamicJ <= d.EnergyDynamicJ {
		t.Fatalf("NVM traffic should cost more dynamic energy: %g vs %g",
			n.EnergyDynamicJ, d.EnergyDynamicJ)
	}
	for _, r := range []Result{d, n} {
		if r.EnergyJ != r.EnergyDynamicJ+r.EnergyStaticJ {
			t.Fatal("energy breakdown inconsistent")
		}
		if r.EDP() != r.EnergyJ*r.Time {
			t.Fatal("EDP inconsistent")
		}
	}
}

// TestBusyFractions: the memory system is busier under NVM-only (same
// bytes, more service time each) and both fractions stay in [0, 1].
func TestBusyFractions(t *testing.T) {
	h := pressured()
	tg := build(t, "heat")
	dram := runPolicy(t, tg, h, DRAMOnly)
	nvm := runPolicy(t, tg, h, NVMOnly)
	for _, r := range []Result{dram, nvm} {
		if r.MemBusyFrac < 0 || r.MemBusyFrac > 1 || r.CopyBusyFrac < 0 || r.CopyBusyFrac > 1 {
			t.Fatalf("busy fractions out of range: %+v", r)
		}
	}
	if nvm.MemBusyFrac <= dram.MemBusyFrac {
		t.Fatalf("NVM-only should keep the memory system busier: %g vs %g",
			nvm.MemBusyFrac, dram.MemBusyFrac)
	}
	managed := runPolicy(t, tg, h, Tahoe)
	if managed.Migration.Migrations > 0 && managed.CopyBusyFrac <= 0 {
		t.Fatal("migrations without copy-channel busy time")
	}
}
