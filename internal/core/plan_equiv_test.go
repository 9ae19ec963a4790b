package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mem"
	"repro/internal/task"
)

// This file enforces the optimized planner's correctness contract (see
// plan.go): every plan computed during a run must be bit-identical —
// plan kind, target-set membership, Float64bits of predicted and
// solverSec — to the retained reference planner in plan_ref.go. The
// planAudit hook hands us every freshly computed plan together with the
// future list it was computed from; we recompute it with the reference
// on the same runner state and compare exactly.

// equivGraph is randomGraph's bigger sibling: mixed object sizes large
// enough to trigger chunking at small DRAM capacities, 2–4 kinds, and
// (on odd seeds) a mid-graph hot-set shift so drift detection and
// replanning get exercised.
func equivGraph(seed int64) *task.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := task.NewBuilder(fmt.Sprintf("equiv%d", seed))
	nObj := rng.Intn(8) + 3
	objs := make([]task.ObjectID, nObj)
	for i := range objs {
		size := int64(rng.Intn(24)+1) * mem.MB
		objs[i] = b.ObjectOpt("o", size, rng.Intn(2) == 0)
	}
	kinds := []string{"ka", "kb", "kc", "kd"}[:rng.Intn(3)+2]
	nTasks := rng.Intn(120) + 40
	shift := nTasks / 2
	for i := 0; i < nTasks; i++ {
		bias := 0
		if seed%2 == 1 && i >= shift {
			// Second half leans on a rotated object set: same kinds,
			// different traffic — drift-detector fodder.
			bias = nObj / 2
		}
		var acc []task.Access
		used := map[task.ObjectID]bool{}
		for j := 0; j <= rng.Intn(3); j++ {
			o := objs[(rng.Intn(nObj)+bias)%nObj]
			if used[o] {
				continue
			}
			used[o] = true
			acc = append(acc, task.Access{
				Obj:    o,
				Mode:   task.AccessMode(rng.Intn(3)),
				Loads:  int64(rng.Intn(400000)),
				Stores: int64(rng.Intn(200000)),
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

// driftyGraph reproduces the workload-variation pattern (one kind whose
// traffic genuinely shifts mid-run) so the soup reliably covers replans.
func driftyGraph() *task.Graph {
	b := task.NewBuilder("equiv-drifty")
	hot := b.Object("hot", 24*mem.MB)
	cold := b.Object("cold", 24*mem.MB)
	n := int64(24 * mem.MB / 64)
	for i := 0; i < 120; i++ {
		b.Submit("work", 1e-5, []task.Access{
			{Obj: hot, Mode: task.InOut, Loads: n, Stores: n / 2, MLP: 8},
			{Obj: cold, Mode: task.In, Loads: n / 64, MLP: 8},
		}, nil)
	}
	for i := 0; i < 120; i++ {
		b.Submit("work", 1e-5, []task.Access{
			{Obj: hot, Mode: task.In, Loads: n / 64, MLP: 8},
			{Obj: cold, Mode: task.InOut, Loads: n, Stores: n / 2, MLP: 8},
		}, nil)
	}
	return b.Build()
}

// matchesChunkSet reports whether the bitset holds exactly the members
// of the reference chunk set.
func matchesChunkSet(r *runner, m chunkSet, s planSet) bool {
	n := 0
	for ref, in := range m {
		if !in {
			continue
		}
		n++
		if !s.has(r.st.ChunkIndex(ref)) {
			return false
		}
	}
	return s.count() == n
}

func TestPlannerEquivalence(t *testing.T) {
	defer func() { planAudit = nil }()

	var audits, globals, locals, phases int
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		if failures <= 25 {
			t.Errorf(format, args...)
		}
	}
	scenario := ""

	planAudit = func(r *runner, future []*task.Task, got planResult) {
		audits++
		switch got.kind {
		case "global":
			globals++
			ref := r.refComputeGlobalPlan(future)
			if math.Float64bits(got.predicted) != math.Float64bits(ref.predicted) {
				fail("%s: global predicted %v != ref %v", scenario, got.predicted, ref.predicted)
			}
			if math.Float64bits(got.solverSec) != math.Float64bits(ref.solverSec) {
				fail("%s: global solverSec %v != ref %v", scenario, got.solverSec, ref.solverSec)
			}
			if !matchesChunkSet(r, ref.global, got.global) {
				fail("%s: global target set differs (%d bits vs %d refs)",
					scenario, got.global.count(), len(ref.global))
			}
		case "local":
			locals++
			ref := r.refComputeLocalPlan(future)
			if math.Float64bits(got.predicted) != math.Float64bits(ref.predicted) {
				fail("%s: local predicted %v != ref %v", scenario, got.predicted, ref.predicted)
			}
			if math.Float64bits(got.solverSec) != math.Float64bits(ref.solverSec) {
				fail("%s: local solverSec %v != ref %v", scenario, got.solverSec, ref.solverSec)
			}
			for id := range ref.perTask {
				refSet, optSet := ref.perTask[id], got.perTask[id]
				if (refSet == nil) != (optSet == nil) {
					fail("%s: local task %d nil-ness differs (ref nil=%v)", scenario, id, refSet == nil)
					continue
				}
				if refSet != nil && !matchesChunkSet(r, refSet, optSet) {
					fail("%s: local task %d target set differs", scenario, id)
				}
			}
		case "phase":
			phases++
			ref := r.refComputeLevelPlan(future)
			if math.Float64bits(got.predicted) != math.Float64bits(ref.predicted) {
				fail("%s: phase predicted %v != ref %v", scenario, got.predicted, ref.predicted)
			}
			if math.Float64bits(got.solverSec) != math.Float64bits(ref.solverSec) {
				fail("%s: phase solverSec %v != ref %v", scenario, got.solverSec, ref.solverSec)
			}
			if len(ref.perLevel) != len(got.perLevel) {
				fail("%s: phase levels %d vs ref %d", scenario, len(got.perLevel), len(ref.perLevel))
				return
			}
			for lv := range ref.perLevel {
				refSet, optSet := ref.perLevel[lv], got.perLevel[lv]
				if (refSet == nil) != (optSet == nil) {
					fail("%s: phase level %d nil-ness differs (ref nil=%v)", scenario, lv, refSet == nil)
					continue
				}
				if refSet != nil && !matchesChunkSet(r, refSet, optSet) {
					fail("%s: phase level %d target set differs", scenario, lv)
				}
			}
		default:
			fail("%s: unexpected plan kind %q", scenario, got.kind)
		}
	}

	run := func(g *task.Graph, cfg Config) Result {
		t.Helper()
		res, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		return res
	}

	caps := []int64{16, 48, 128}
	workers := []int{1, 2, 4, 8}
	looks := []int{0, 8, 16, 32}
	scenarios, replansSeen, chunkedSeen := 0, 0, 0
	for seed := int64(1); seed <= 27; seed++ {
		g := equivGraph(seed)
		h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), caps[seed%3]*mem.MB)

		full := DefaultConfig(h)
		full.Workers = workers[seed%4]
		full.Lookahead = looks[seed%4]

		globalOnly := full
		globalOnly.Tech.LocalSearch = false
		globalOnly.Tech.Chunking = false
		globalOnly.Tech.Proactive = false

		localOnly := full
		localOnly.Tech.GlobalSearch = false
		localOnly.Lookahead = 32

		phase := full
		phase.Policy = PhaseBased

		for i, cfg := range []Config{full, globalOnly, localOnly, phase} {
			scenario = fmt.Sprintf("seed %d variant %d", seed, i)
			scenarios++
			res := run(g, cfg)
			if res.Replans > 0 {
				replansSeen++
			}
			if cfg.Tech.Chunking {
				for _, o := range g.Objects {
					if o.Chunkable && o.Size > cfg.HMS.Capacity(cfg.HMS.Fastest())/2 {
						chunkedSeen++
						break
					}
				}
			}
		}
	}

	// A deterministic drifting workload guarantees replans are covered.
	dg := driftyGraph()
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.25), 32*mem.MB)
	for i, cfg := range []Config{DefaultConfig(h), func() Config {
		c := DefaultConfig(h)
		c.Policy = PhaseBased
		return c
	}()} {
		cfg.Workers = 2
		scenario = fmt.Sprintf("drifty variant %d", i)
		scenarios++
		res := run(dg, cfg)
		if res.Replans > 0 {
			replansSeen++
		}
	}

	if failures > 25 {
		t.Errorf("%d further equivalence failures suppressed", failures-25)
	}
	// The soup must actually have exercised everything it claims to test.
	if scenarios < 100 {
		t.Errorf("only %d scenarios, want >= 100", scenarios)
	}
	if audits < scenarios {
		t.Errorf("only %d plan audits across %d scenarios", audits, scenarios)
	}
	if globals == 0 || locals == 0 || phases == 0 {
		t.Errorf("coverage hole: %d global, %d local, %d phase plans audited", globals, locals, phases)
	}
	if replansSeen == 0 {
		t.Error("coverage hole: no scenario replanned")
	}
	if chunkedSeen == 0 {
		t.Error("coverage hole: no chunked scenario")
	}
}

// TestUsersAroundMatchesSearch checks the local search's cursor walk
// against binary searches of the user lists — the usesAhead count and
// PrevUser lookup the reference planner makes — at every task, in
// task order, with tasks skipped as started tasks are, including the
// horizon's exact edge.
func TestUsersAroundMatchesSearch(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := equivGraph(seed)
		rng := rand.New(rand.NewSource(seed))
		nobj := len(g.Objects)
		p := &plannerState{users: make([][]task.TaskID, nobj), ahead: make([]int, nobj), beyond: make([]int, nobj)}
		for obj := range p.users {
			p.users[obj] = g.Users(task.ObjectID(obj))
		}
		for _, horizon := range []task.TaskID{1, 2, 7, 64, task.TaskID(len(g.Tasks))} {
			clear(p.ahead)
			clear(p.beyond)
			for _, tk := range g.Tasks {
				if rng.Intn(4) == 0 {
					continue
				}
				for obj := range p.users {
					users := p.users[obj]
					lo := sort.Search(len(users), func(i int) bool { return users[i] > tk.ID })
					hi := sort.Search(len(users), func(i int) bool { return users[i] > tk.ID+horizon })
					want := task.TaskID(-1)
					if pu, ok := g.PrevUser(task.ObjectID(obj), tk.ID); ok {
						want = pu
					}
					uses, prev := p.usersAround(task.ObjectID(obj), tk.ID, horizon)
					if uses != hi-lo || prev != want {
						t.Fatalf("seed %d horizon %d task %d obj %d: usersAround = (%d, %d), search = (%d, %d)",
							seed, horizon, tk.ID, obj, uses, prev, hi-lo, want)
					}
				}
			}
		}
	}
}

// TestPlannerSteadyStateAllocs pins down the optimization's headline
// property: once the caches are warm, recomputing the searches on a
// stable runner state allocates (essentially) nothing — the global and
// local searches under Tahoe, the level search under PhaseBased.
func TestPlannerSteadyStateAllocs(t *testing.T) {
	g := equivGraph(8) // even seed: no drift, stable state
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 32*mem.MB)
	cfg := DefaultConfig(h)
	cfg.Workers = 4
	pb, err := NewPlannerBench(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb.Global()
	pb.Local()
	allocs := testing.AllocsPerRun(100, func() {
		pb.Global()
		pb.Local()
	})
	if allocs > 2 {
		t.Errorf("steady-state global+local plan allocates %v objects per run, want <= 2", allocs)
	}

	cfg.Policy = PhaseBased
	lb, err := NewPlannerBench(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Level()
	if allocs := testing.AllocsPerRun(100, func() { lb.Level() }); allocs > 0 {
		t.Errorf("steady-state level plan allocates %v objects per run, want 0", allocs)
	}
}

// TestPlannerBenchAgreement cross-checks the benchmark harness itself:
// the optimized and reference paths it exposes must agree bit for bit,
// including across replans with rotating cache invalidations.
func TestPlannerBenchAgreement(t *testing.T) {
	for _, seed := range []int64{3, 8, 15} {
		g := equivGraph(seed)
		h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 48*mem.MB)
		cfg := DefaultConfig(h)
		pb, err := NewPlannerBench(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if o, r := pb.Global(), pb.RefGlobal(); math.Float64bits(o) != math.Float64bits(r) {
			t.Errorf("seed %d: bench global %v != ref %v", seed, o, r)
		}
		if o, r := pb.Local(), pb.RefLocal(); math.Float64bits(o) != math.Float64bits(r) {
			t.Errorf("seed %d: bench local %v != ref %v", seed, o, r)
		}
		for i := 0; i < 5; i++ {
			o := pb.Replan()
			r := pb.RefReplan()
			if math.Float64bits(o) != math.Float64bits(r) {
				t.Errorf("seed %d replan %d: bench %v != ref %v", seed, i, o, r)
			}
		}
	}
}
