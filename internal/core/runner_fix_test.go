package core

import (
	"math"
	"testing"

	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/task"
	"repro/internal/trace"
)

// evictionGraph pins the task IDs the makeRoom regression test needs:
// A is used by tasks {0, 9}, B by {1, 6}, C (the promotion target) by 5,
// and filler tasks touch D. With tasks 0–4 already started the frontier
// sits at 5, so the true next uses are A→9 and B→6.
func evictionGraph() (*task.Graph, [4]task.ObjectID) {
	b := task.NewBuilder("eviction")
	A := b.Object("A", 40*mem.MB)
	B := b.Object("B", 40*mem.MB)
	C := b.Object("C", 40*mem.MB)
	D := b.Object("D", 1*mem.MB)
	acc := func(o task.ObjectID) []task.Access {
		return []task.Access{{Obj: o, Mode: task.In, Loads: 1000, MLP: 4}}
	}
	for i, o := range []task.ObjectID{A, B, D, D, D, C, B, D, D, A} {
		_ = i
		b.Submit("k", 1e-5, acc(o), nil)
	}
	return b.Build(), [4]task.ObjectID{A, B, C, D}
}

// fixRunner builds a runner directly (no seed/Run) so tests can poke at
// placement and promotion machinery mid-state.
func fixRunner(t *testing.T, g *task.Graph, cfg Config) *runner {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := new(runner)
	if err := r.setup(g, cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMakeRoomVictimOrderingFromFrontier pins the eviction-ordering fix:
// victims' next use must be scanned from the execution frontier. The
// pre-fix code anchored the scan at the promotion's beneficiary task —
// for a global enforcement pass (forTask == -1) that returned each
// object's first-ever user, so A (true next use 9) looked *nearer* than
// B (true next use 6) and the wrong chunk was demoted.
func TestMakeRoomVictimOrderingFromFrontier(t *testing.T) {
	g, objs := evictionGraph()
	A, B, C := objs[0], objs[1], objs[2]

	cfg := DefaultConfig(mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 100*mem.MB))
	cfg.Workers = 1
	cfg.Tech.Chunking = false
	cfg.Tech.InitialPlacement = false
	r := fixRunner(t, g, cfg)

	refA := heap.ChunkRef{Obj: A}
	refB := heap.ChunkRef{Obj: B}
	refC := heap.ChunkRef{Obj: C}
	if err := r.st.Move(refA, mem.InDRAM); err != nil {
		t.Fatal(err)
	}
	if err := r.st.Move(refB, mem.InDRAM); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 5; id++ {
		r.started[id] = true
	}

	// Promote C under a global enforcement pass: 20 MB free, 40 MB
	// needed, so exactly one of A/B must be demoted — the farthest-next-
	// use victim, which from the frontier (task 5) is A.
	keep := make(planSet, (r.st.TotalChunks()+63)/64)
	keep.set(r.st.ChunkIndex(refC))
	if !r.tryPromoteTo(refC, r.fastTier, keep, -1) {
		t.Fatal("promotion did not fit despite an evictable victim")
	}
	r.e.Run()

	if got := r.st.Tier(refA); got != mem.InNVM {
		t.Errorf("A (next use 9) should be the eviction victim, still in %v", got)
	}
	if got := r.st.Tier(refB); got != mem.InDRAM {
		t.Errorf("B (next use 6) should stay resident, in %v", got)
	}
	if got := r.st.Tier(refC); got != mem.InDRAM {
		t.Errorf("C not promoted, in %v", got)
	}
}

// TestFailedPromotionTraced pins the accounting fix for failed
// migrations: a completed copy must carry OK=true in the trace, and a
// promotion dropped for lack of DRAM room must appear as a lone
// MigrationEnd with OK=false — the pre-fix observer dropped the ok flag
// entirely and the drop path never reached the observer at all.
func TestFailedPromotionTraced(t *testing.T) {
	b := task.NewBuilder("drop")
	A := b.Object("A", 40*mem.MB)
	B := b.Object("B", 5*mem.MB)
	C := b.Object("C", 40*mem.MB)
	for _, o := range []task.ObjectID{A, B, C} {
		b.Submit("k", 1e-5, []task.Access{{Obj: o, Mode: task.In, Loads: 1000, MLP: 4}}, nil)
	}
	g := b.Build()

	tr := &trace.Trace{}
	cfg := DefaultConfig(mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 50*mem.MB))
	cfg.Workers = 1
	cfg.Tech.Chunking = false
	cfg.Tech.InitialPlacement = false
	cfg.Trace = tr
	r := fixRunner(t, g, cfg)

	if err := r.st.Move(heap.ChunkRef{Obj: A}, mem.InDRAM); err != nil {
		t.Fatal(err)
	}
	r.enqueueMove(heap.ChunkRef{Obj: B}, mem.InDRAM, -1) // fits: real copy
	r.enqueueMove(heap.ChunkRef{Obj: C}, mem.InDRAM, -1) // 40 MB into 5 MB free: dropped
	r.e.Run()

	var starts int
	var ends []trace.Event
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.MigrationStart:
			starts++
		case trace.MigrationEnd:
			ends = append(ends, e)
		}
	}
	if starts != 1 {
		t.Fatalf("%d migration starts, want 1 (the drop must not record a start)", starts)
	}
	if len(ends) != 2 {
		t.Fatalf("%d migration ends, want 2 (completed + dropped): %+v", len(ends), ends)
	}
	byObj := map[task.ObjectID]trace.Event{}
	for _, e := range ends {
		byObj[e.Obj] = e
	}
	if e := byObj[B]; !e.OK {
		t.Errorf("completed copy of B traced with OK=false: %+v", e)
	}
	if e := byObj[C]; e.OK {
		t.Errorf("dropped promotion of C traced as successful: %+v", e)
	}

	migs := tr.Migrations()
	if len(migs) != 2 {
		t.Fatalf("Migrations() = %d records, want 2: %+v", len(migs), migs)
	}
	var okCount, failCount int
	for _, m := range migs {
		if m.OK {
			okCount++
		} else {
			failCount++
			if m.Start != m.End {
				t.Errorf("dropped promotion should be zero-duration: %+v", m)
			}
		}
	}
	if okCount != 1 || failCount != 1 {
		t.Fatalf("records: %d ok, %d failed, want 1/1", okCount, failCount)
	}
	if s := tr.MigrationStats(); s.Count != 1 || s.Failed != 1 || s.BytesMoved != 5*mem.MB {
		t.Fatalf("trace stats = %+v", s)
	}
	if s := r.mig.Stats(); s.Migrations != 1 || s.Failed() != 1 {
		t.Fatalf("engine stats = %+v", s)
	}
}

// TestLookaheadBeyondGraph pins that a lookahead past the last task means
// "every task": cholesky under Tahoe plans the same at a lookahead of the
// task count and at 2^59, 2^60 and MaxInt64. The local search used to
// widen the lookahead into a horizon (8*Lookahead) before capping it, so
// from 2^60 on the product overflowed and the horizon fell to its
// 64-task floor — planning like a lookahead of 8.
func TestLookaheadBeyondGraph(t *testing.T) {
	tg := build(t, "cholesky")
	n := len(tg.g.Graph.Tasks)
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	want := runPolicy(t, tg, h, Tahoe, func(c *Config) { c.Lookahead = n })
	for _, la := range []int{1 << 59, 1 << 60, math.MaxInt64} {
		got := runPolicy(t, tg, h, Tahoe, func(c *Config) { c.Lookahead = la })
		if math.Float64bits(got.Time) != math.Float64bits(want.Time) {
			t.Errorf("lookahead %d: makespan %v, want %v (lookahead %d)", la, got.Time, want.Time, n)
		}
	}
}
