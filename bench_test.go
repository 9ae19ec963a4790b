package tahoe

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/heap"
	"repro/internal/migrate"
	"repro/internal/placement"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Experiment benches: each regenerates one of the evaluation's tables or
// figures (quick instances, so iterations stay cheap). The wall time the
// benchmark reports is the harness cost of reproducing the artifact; the
// artifact's own numbers are simulated time and are deterministic.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := e.Run(ExpOptions{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1_DeviceTable(b *testing.B)        { benchExperiment(b, "T1") }
func BenchmarkT2_Calibration(b *testing.B)        { benchExperiment(b, "T2") }
func BenchmarkE1_BandwidthSlowdown(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2_LatencySlowdown(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3_ObjectSensitivity(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4_MainComparisonBW(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5_MainComparisonLat(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6_TechniqueAblation(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7_MigrationDetails(b *testing.B)   { benchExperiment(b, "E7") }
func BenchmarkE8_StrongScaling(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9_DRAMSensitivity(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10_OptaneRW(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11_SchedulerAblation(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12_LookaheadSweep(b *testing.B)    { benchExperiment(b, "E12") }

// BenchmarkRuntimeFullRun measures the cost of one complete managed run
// (plan + simulate + migrate) on the standard machine and workload, and
// reports the simulated makespan as a metric.
func BenchmarkRuntimeFullRun(b *testing.B) { benchFullRun(b, Tahoe) }

// BenchmarkRuntimeFullRunFirstTouch is its unmanaged twin: the same graph
// and machine under FirstTouch, which never plans or migrates, so its
// cost is the task lifecycle and per-run set-up alone.
func BenchmarkRuntimeFullRunFirstTouch(b *testing.B) { benchFullRun(b, FirstTouch) }

// BenchmarkRuntimeFullRunPhaseBased is its PhaseBased twin: the other
// planning policy, with per-level knapsacks through the solver's memo.
func BenchmarkRuntimeFullRunPhaseBased(b *testing.B) { benchFullRun(b, PhaseBased) }

func benchFullRun(b *testing.B, p Policy) {
	h := NewHMS(DRAM(), NVMBandwidth(0.5), 128*MB)
	w, err := BuildWorkload("cholesky", WorkloadParams{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(h)
	cfg.Policy = p
	b.ReportAllocs()
	b.ResetTimer()
	var last Result
	for i := 0; i < b.N; i++ {
		last, err = Run(w.Graph, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Time, "sim-s/run")
	b.ReportMetric(float64(last.Migration.Migrations), "migrations/run")
}

// Substrate micro-benchmarks.

func BenchmarkSimEngineContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		r := e.AddResource("dev", 1e9)
		for f := 0; f < 64; f++ {
			e.StartFlow(&sim.Flow{Stages: []sim.Stage{
				{Fixed: 1e-4},
				{Res: r, Bytes: 1e6, MaxRate: 5e8},
			}})
		}
		e.Run()
	}
}

// BenchmarkSimEngineManyFlows stresses the incremental-rate path: many
// concurrent flows spread over several resources, caps on half of them,
// so every completion dirties one resource while the rest stay clean.
func BenchmarkSimEngineManyFlows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		res := make([]*sim.Resource, 8)
		for r := range res {
			res[r] = e.AddResource("dev", 1e9)
		}
		for f := 0; f < 256; f++ {
			st := sim.Stage{Res: res[f%len(res)], Bytes: 1e6, Weight: float64(f%3 + 1)}
			if f%2 == 0 {
				st.MaxRate = 4e8
			}
			e.StartFlow(&sim.Flow{Stages: []sim.Stage{{Fixed: 1e-5}, st}})
		}
		e.Run()
	}
}

// BenchmarkExperimentSuiteQuick regenerates the full evaluation (quick
// instances) through the parallel harness — the headline wall-clock
// number for the suite.
func BenchmarkExperimentSuiteQuick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := RunAllExperiments(io.Discard, ExpOptions{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRecord measures the steady-state cost of recording one
// run's worth of trace events and dispatch records into a reused Trace —
// the Grow/Reset path the runtime and the replay recorder use, with the
// task kind interned once per Reset. Once the buffers are sized it must
// report 0 allocs/op.
func BenchmarkTraceRecord(b *testing.B) {
	const tasks = 512
	tr := &trace.Trace{}
	tr.Grow(2*tasks, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		k, err := tr.Intern("k")
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < tasks; t++ {
			tr.AddDispatch(trace.Dispatch{Time: float64(t), Task: task.TaskID(t), Worker: t % 8})
			tr.Add(trace.Event{
				Time: float64(t), Kind: trace.TaskStart,
				Task: task.TaskID(t), TaskKind: k, Worker: t % 8, OK: true,
			})
			tr.Add(trace.Event{
				Time: float64(t) + 0.5, Kind: trace.TaskEnd,
				Task: task.TaskID(t), TaskKind: k, Worker: t % 8, OK: true,
			})
		}
	}
	if tr.Len() != 2*tasks {
		b.Fatalf("recorded %d events, want %d", tr.Len(), 2*tasks)
	}
}

// traceJSONLRecording records BenchmarkTraceJSONL's fixed 20 kB
// recording: cholesky at scale 6 on 16 MB of DRAM under an injected
// fault schedule, so every event kind is on the wire.
func traceJSONLRecording(tb testing.TB) *Recording {
	w, err := BuildWorkload("cholesky", WorkloadParams{Scale: 6})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig(NewHMS(DRAM(), NVMBandwidth(0.5), 16*MB))
	cfg.Faults = fault.Random(1003, 100, 0.15, 2)
	res, rec, err := Record(w.Graph, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if res.FaultEvents == 0 {
		tb.Fatal("no fault fired; the recording lacks fault events")
	}
	return rec
}

// BenchmarkTraceJSONL measures trace/replay I/O: one Save and one Load of
// traceJSONLRecording's recording.
func BenchmarkTraceJSONL(b *testing.B) {
	rec := traceJSONLRecording(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := rec.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadRecording(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordReplayOp measures one op of perfbench's record-replay
// workload on BenchmarkTraceJSONL's recording (cholesky at scale 6 on 16
// MB of DRAM under an injected fault schedule): Record, Save, Load, a
// second Save into SHA-256, a same-config Replay, which must reproduce
// the recorded makespan, and a counterfactual Replay on NVM of half the
// bandwidth. The saved bytes go to one reused buffer, so perfbench's
// per-op buffer growth is not counted.
func BenchmarkRecordReplayOp(b *testing.B) {
	w, err := BuildWorkload("cholesky", WorkloadParams{Scale: 6})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(NewHMS(DRAM(), NVMBandwidth(0.5), 16*MB))
	cfg.Faults = fault.Random(1003, 100, 0.15, 2)
	cf := DefaultConfig(NewHMS(DRAM(), NVMBandwidth(0.25), 16*MB))
	var saved bytes.Buffer
	h := sha256.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, rec, err := Record(w.Graph, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.FaultEvents == 0 {
			b.Fatal("no fault fired; the recording lacks fault events")
		}
		saved.Reset()
		if err := rec.Save(&saved); err != nil {
			b.Fatal(err)
		}
		loaded, err := LoadRecording(bytes.NewReader(saved.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		h.Reset()
		if err := loaded.Save(h); err != nil {
			b.Fatal(err)
		}
		same, err := Replay(w.Graph, cfg, loaded)
		if err != nil {
			b.Fatal(err)
		}
		if same.Time != res.Time {
			b.Fatalf("same-config replay makespan %v, recorded %v", same.Time, res.Time)
		}
		if _, err := Replay(w.Graph, cf, loaded); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChaosSuite runs a representative slice of the fault-injection
// chaos grid — one traced run per (workload, policy, rate) combo — so
// regressions in the resilience and trace-recording paths show up in
// wall-clock and allocs/op terms.
func BenchmarkChaosSuite(b *testing.B) {
	combos := []struct {
		wl   string
		pol  core.Policy
		rate float64
		seed int64
	}{
		{"heat", core.Tahoe, 6, 1001},
		{"cg", core.PhaseBased, 12, 1002},
		{"cholesky", core.XMem, 2, 1003},
		{"wave", core.FirstTouch, 6, 1004},
	}
	type prep struct {
		g   *task.Graph
		cfg core.Config
	}
	h := NewHMS(DRAM(), NVMBandwidth(0.5), 64*MB)
	preps := make([]prep, len(combos))
	for i, c := range combos {
		w, err := BuildWorkload(c.wl, WorkloadParams{Scale: 6})
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultConfig(h)
		cfg.Policy = c.pol
		cfg.Faults = fault.Random(c.seed, c.rate, 0.6, 2)
		preps[i] = prep{g: w.Graph, cfg: cfg}
	}
	tr := &trace.Trace{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range preps {
			tr.Reset()
			p.cfg.Trace = tr
			if _, err := Run(p.g, p.cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkKnapsackDP times one bounded-row DP (59 candidates, 256
// cells) on a long-lived Solver's scratch through the memo-free path the
// local search uses, so it allocates nothing.
func BenchmarkKnapsackDP(b *testing.B) {
	items := make([]placement.Item, 64)
	for i := range items {
		items[i] = placement.Item{
			Ref:    heap.ChunkRef{Obj: task.ObjectID(i)},
			Size:   int64((i%7 + 1)) * (8 << 20),
			Weight: float64(i%13) * 1e-3,
		}
	}
	s := placement.NewSolver()
	chosen := s.AppendKnapsack(nil, items, 256<<20, placement.DefaultGranularity) // size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chosen = s.AppendKnapsack(chosen[:0], items, 256<<20, placement.DefaultGranularity)
	}
}

// BenchmarkHeapMove times the heap layer alone: one op promotes every
// chunk of the cholesky graph's state, each chunkable object split in
// 16, to DRAM and demotes it again, so it allocates nothing.
func BenchmarkHeapMove(b *testing.B) {
	w, err := BuildWorkload("cholesky", WorkloadParams{})
	if err != nil {
		b.Fatal(err)
	}
	chunks := make([]int, len(w.Graph.Objects))
	for _, o := range w.Graph.Objects {
		chunks[o.ID] = 16
	}
	st, err := new(heap.State).Reset(NewHMS(DRAM(), NVMBandwidth(0.5), 1<<44), w.Graph.Objects, chunks)
	if err != nil {
		b.Fatal(err)
	}
	fast := st.Fastest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ix := 0; ix < st.TotalChunks(); ix++ {
			if err := st.Move(st.RefAt(ix), fast); err != nil {
				b.Fatal(err)
			}
		}
		for ix := 0; ix < st.TotalChunks(); ix++ {
			if err := st.Move(st.RefAt(ix), 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMigrateEnqueueSettle times the migration layer alone: one op
// enqueues, on a warm engine, a request its chunk already satisfies and
// eight promotions, cancels two queued promotions, runs the helper thread to
// quiescence, then demotes every promoted chunk and runs to quiescence
// again. allocs/op is pinned at 0: copies run on one reused flow and
// settlements on one bound callback.
func BenchmarkMigrateEnqueueSettle(b *testing.B) {
	h := NewHMS(DRAM(), NVMBandwidth(0.5), 128*MB)
	objs := make([]*task.Object, 8)
	for i := range objs {
		objs[i] = &task.Object{ID: task.ObjectID(i), Size: 4 * MB}
	}
	st, err := new(heap.State).Reset(h, objs, nil)
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine()
	m := new(migrate.Engine).Reset(e, st, h)
	settled := 0
	done := func(float64, migrate.Request, bool) { settled++ }
	op := func() {
		m.Enqueue(migrate.Request{Ref: heap.ChunkRef{Obj: 7}, To: 0, ForTask: -1, Done: done})
		for i := range objs {
			ref := heap.ChunkRef{Obj: task.ObjectID(i)}
			m.Enqueue(migrate.Request{Ref: ref, To: st.Fastest(), ForTask: task.TaskID(i), Done: done})
		}
		m.CancelQueued(heap.ChunkRef{Obj: 3}, -1)
		m.CancelQueued(heap.ChunkRef{Obj: 5}, -1)
		e.Run()
		for i := range objs {
			if ref := (heap.ChunkRef{Obj: task.ObjectID(i)}); st.Tier(ref) != 0 {
				m.Enqueue(migrate.Request{Ref: ref, To: 0, ForTask: -1, Done: done})
			}
		}
		e.Run()
		if m.QueueLen() != 0 || m.PendingCount() != 0 {
			b.Fatalf("%d queued and %d pending after quiescence", m.QueueLen(), m.PendingCount())
		}
	}
	op() // warm: grow the queues and the engine's timer heap once
	settled = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if settled != 15*b.N {
		b.Fatalf("%d settlements in %d ops, want 15 per op", settled, b.N)
	}
}

// graphBuildMix is perfbench's serve-http mix: each app at the scale its
// ops build it.
var graphBuildMix = []struct {
	name  string
	scale int
}{
	{"bfs", 5}, {"cg", 6}, {"cholesky", 6}, {"fft", 20}, {"heat", 6},
	{"kmeans", 4}, {"lu", 6}, {"pagerank", 4}, {"qr", 5}, {"sort", 20},
	{"sparselu", 8}, {"strassen", 1}, {"wave", 6},
}

// BenchmarkGraphBuild builds and validates every graph of the serve mix
// once per op: the set-up the daemon pays before each run it serves.
func BenchmarkGraphBuild(b *testing.B) {
	specs := make([]workloads.Spec, len(graphBuildMix))
	for i, a := range graphBuildMix {
		s, err := workloads.ByName(a.name)
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range specs {
			g := s.Build(workloads.Params{Scale: graphBuildMix[j].scale}).Graph
			if err := g.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGraphRebuild is BenchmarkGraphBuild with every graph built
// in one warm Builder, as each of the daemon's run contexts builds them:
// what remains per op is object names and the apps' per-build tables.
func BenchmarkGraphRebuild(b *testing.B) {
	specs := make([]workloads.Spec, len(graphBuildMix))
	for i, a := range graphBuildMix {
		s, err := workloads.ByName(a.name)
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = s
	}
	var bld task.Builder
	build := func() {
		for j, s := range specs {
			g := s.Build(workloads.Params{Scale: graphBuildMix[j].scale, Into: &bld}).Graph
			if err := g.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
}

func BenchmarkExecPoolForkJoin(b *testing.B) {
	bld := task.NewBuilder("bench")
	objs := make([]task.ObjectID, 64)
	for i := range objs {
		objs[i] = bld.Object("o", 64)
	}
	for round := 0; round < 16; round++ {
		for _, o := range objs {
			bld.Submit("t", 0, []task.Access{
				{Obj: o, Mode: task.InOut, Loads: 1, Stores: 1, MLP: 1},
			}, func() {})
		}
	}
	g := bld.Build()
	pool := exec.NewPool(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.Run(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.Tasks)), "tasks/op")
}

// BenchmarkPolicies compares the harness cost of each policy on one graph.
func BenchmarkPolicies(b *testing.B) {
	h := NewHMS(DRAM(), NVMBandwidth(0.5), 128*MB)
	w, err := BuildWorkload("cg", WorkloadParams{Scale: 6})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []core.Policy{core.NVMOnly, core.XMem, core.PhaseBased, core.Tahoe} {
		b.Run(p.String(), func(b *testing.B) {
			cfg := DefaultConfig(h)
			cfg.Policy = p
			var last Result
			for i := 0; i < b.N; i++ {
				last, err = Run(w.Graph, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Time, "sim-s/run")
		})
	}
}

func BenchmarkE13_ClusterScaling(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkE14_ModelAccuracy(b *testing.B)  { benchExperiment(b, "E14") }
func BenchmarkE15_Energy(b *testing.B)         { benchExperiment(b, "E15") }

// BenchmarkExecPoolSteal runs the executor pool on a steal-heavy graph:
// 256 independent eight-task chains, seeded round-robin across the deques.
func BenchmarkExecPoolSteal(b *testing.B) {
	bld := task.NewBuilder("steal")
	objs := make([]task.ObjectID, 256)
	for i := range objs {
		objs[i] = bld.Object("o", 64)
	}
	for round := 0; round < 8; round++ {
		for _, o := range objs {
			bld.Submit("t", 0, []task.Access{
				{Obj: o, Mode: task.InOut, Loads: 1, Stores: 1, MLP: 1},
			}, func() {})
		}
	}
	g := bld.Build()
	p := exec.NewPool(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Run(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE16_ChunkGranularity(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17_Replay(b *testing.B)           { benchExperiment(b, "E17") }

// BenchmarkE20_ProfNoiseRegret regenerates the placement-regret grid
// (each cell is a record + pinned replay pair).
func BenchmarkE20_ProfNoiseRegret(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkE21_Feedback regenerates the feedback-replanning grid (one
// exact-model reference recording per workload, replayed per injected
// calibration error with the correction loop off and on).
func BenchmarkE21_Feedback(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkE22_ClusterFaults regenerates the cluster graceful-
// degradation table (per rate cell: three policies' strong-scaling
// runs plus their failover re-executions).
func BenchmarkE22_ClusterFaults(b *testing.B) { benchExperiment(b, "E22") }

// BenchmarkClusterFailover measures one degraded cluster run end to
// end — per-rank derived fault schedules, whole-node outages killing
// ranks, checkpoint sizing, round-robin host adoption, and the
// re-rationed recovery reruns — the full cost of answering "what does
// this job look like on a failing machine".
func BenchmarkClusterFailover(b *testing.B) {
	d, err := DistributedWorkload("cg")
	if err != nil {
		b.Fatal(err)
	}
	p := WorkloadParams{Scale: 8}
	nvm := NVMBandwidth(0.5)
	const nodeDRAM = 24 * MB
	cs := fault.RandomCluster(7, 17, 100, 0.03, 4, 1, 2)
	cfg := ClusterConfig{
		Nodes:        4,
		RanksPerNode: 1,
		NodeDRAM:     nodeDRAM,
		NVM:          nvm,
		Net:          EdisonNetwork(),
		Rank:         DefaultConfig(NewHMS(DRAM(), nvm, nodeDRAM)),
		Faults:       cs,
	}
	res, err := StrongScale(d, p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Failovers) == 0 {
		b.Fatal("schedule triggered no failovers; the benchmark is vacuous")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StrongScale(d, p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedbackObserve measures one observed-vs-predicted ingest.
// allocs/op is gated at zero: Observe runs for every distinct (kind,
// object) pair on every task completion while the loop is enabled, so
// like prof.Record it must stay allocation-free in steady state.
func BenchmarkFeedbackObserve(b *testing.B) {
	e := feedback.New(4, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate a drifting pair with a calm one so both the
		// correction-update and deadband paths are on the clock.
		e.Observe(i&3, task.ObjectID(i&63), 1e-3*float64(1+i&7), 1e-3)
	}
}

// BenchmarkProfilerRecord measures one profiled-execution ingest on the
// runtime's hot completion path — noise synthesis, canonical-order
// accumulation, drift scoring. allocs/op is gated at zero: Record sits
// inside complete() on the planner-bench path and must stay
// allocation-free in steady state.
func BenchmarkProfilerRecord(b *testing.B) {
	cfg := prof.DefaultConfig()
	obs := make([]prof.AccessObs, 8)
	p := prof.New(cfg, []string{"bench"}, len(obs))
	for i := range obs {
		obs[i] = prof.AccessObs{
			Obj:       task.ObjectID(i),
			Loads:     int64(1e5 + 1000*i),
			Stores:    int64(3e4 + 500*i),
			Size:      1 << 20,
			TimeShare: 0.8,
		}
	}
	e := prof.Exec{Kind: 0, Duration: 0.01, Obs: obs}
	p.Record(e) // warm: allocate the per-pair accumulators once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Record(e)
	}
}

// serveBenchLoop is the shared body of the service benchmarks: each
// client goroutine is its own tenant (so the tenant-shard fan-out is
// exercised) issuing runs through the full admission + pool path.
func serveBenchLoop(b *testing.B, s *serve.Server) {
	// Warm the run context of every tenant the loop runs as: a context
	// builds each graph in the storage of the one before, so its first
	// run also allocates the graph's storage.
	for p := 1; p <= runtime.GOMAXPROCS(0); p++ {
		warm := serve.RunRequest{Tenant: fmt.Sprintf("bench-%d", p), Workload: "heat", Scale: 5}
		if resp, err := s.Do(&warm); err != nil || resp.Error != "" {
			b.Fatalf("warm run: %v %q", err, resp.Error)
		}
	}
	var tenants atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := serve.RunRequest{
			Tenant:   fmt.Sprintf("bench-%d", tenants.Add(1)),
			Workload: "heat",
			Scale:    5,
		}
		for pb.Next() {
			resp, err := s.Do(&req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Error != "" {
				b.Fatal(resp.Error)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
}

// BenchmarkServeThroughput is the service's headline number: runs/sec
// through the multi-tenant daemon's in-process path (admission, tenant
// shard, pooled run context, worker pool) at the default pool size.
// allocs/op is gated: steady-state request handling must not allocate
// beyond the run itself.
func BenchmarkServeThroughput(b *testing.B) {
	s := serve.New(serve.Config{})
	defer s.Close()
	serveBenchLoop(b, s)
}

// BenchmarkServeScaling sweeps the worker pool size; runs/sec should
// scale near-linearly up to the core count.
func BenchmarkServeScaling(b *testing.B) {
	for w := 1; w <= runtime.GOMAXPROCS(0); w *= 2 {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := serve.New(serve.Config{Workers: w})
			defer s.Close()
			serveBenchLoop(b, s)
		})
	}
}

// serveRequests is a /v1/run mix shaped like perfbench serve-http's
// ops: a named app under Tahoe with feedback on a three-tier machine, a
// seeded inline graph drawn the way perfbench draws one (1-48 MB
// objects, tasks of four kinds touching one to three neighbouring
// objects), and a traced PhaseBased run.
func serveRequests() []serve.RunRequest {
	rng := rand.New(rand.NewSource(1))
	g := &serve.GraphSpec{Name: fmt.Sprintf("inline%d", rng.Intn(1<<20))}
	const nobj, ntask = 11, 44
	for i := 0; i < nobj; i++ {
		g.Objects = append(g.Objects, serve.ObjectSpec{Size: (1 + rng.Int63n(48)) * MB, NoChunk: rng.Intn(4) == 0})
	}
	modes := []string{"in", "out", "inout"}
	for t := 0; t < ntask; t++ {
		ts := serve.TaskSpec{Kind: fmt.Sprintf("k%d", rng.Intn(4)), CPUSec: 1e-4 + 2e-3*rng.Float64()}
		first := rng.Intn(nobj)
		for k := 0; k < 1+rng.Intn(3); k++ {
			obj := (first + k) % nobj
			lines := g.Objects[obj].Size / 64
			a := serve.AccessSpec{Obj: obj, Mode: modes[rng.Intn(3)], MLP: float64(1 + rng.Intn(8))}
			if a.Mode != "out" {
				a.Loads = 1 + int64(float64(lines)*(0.1+rng.Float64()))
			}
			if a.Mode != "in" {
				a.Stores = 1 + int64(float64(lines)*0.5*rng.Float64())
			}
			ts.Accesses = append(ts.Accesses, a)
		}
		g.Tasks = append(g.Tasks, ts)
	}
	return []serve.RunRequest{
		{Tenant: "bench", Workload: "cholesky", Scale: 6, Policy: "tahoe", Feedback: "on",
			Machine: cliutil.MachineSpec{NVM: "bw:0.25", DRAMMB: 64, CXLMB: 128}},
		{Tenant: "bench", Graph: g, Policy: "tahoe", Machine: cliutil.MachineSpec{NVM: "optane", DRAMMB: 91}},
		{Tenant: "bench", Workload: "heat", Scale: 6, Policy: "phase", Trace: true,
			Machine: cliutil.MachineSpec{NVM: "lat:4", DRAMMB: 181}},
	}
}

// serveBodies encodes serveRequests as a client does, once.
func serveBodies(b *testing.B) [][]byte {
	var bodies [][]byte
	for _, req := range serveRequests() {
		body, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// BenchmarkServeHTTP is the service end to end, as perfbench serve-http
// drives it: one client posts the pre-encoded serveBodies in turn over
// loopback HTTP and reads each answer. An op is one run through the
// daemon's HTTP layer, request codec, admission and worker pool; its
// allocs/op include the client's.
func BenchmarkServeHTTP(b *testing.B) {
	s := serve.New(serve.Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()
	bodies := serveBodies(b)
	post := func(body []byte) []byte {
		hr, err := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw, err := io.ReadAll(hr.Body)
		hr.Body.Close()
		if err != nil || hr.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v: %s", hr.StatusCode, err, raw)
		}
		return raw
	}
	// Warm the calibrations and pools, and check each request runs.
	for _, body := range bodies {
		var resp serve.RunResponse
		if err := json.Unmarshal(post(body), &resp); err != nil || resp.Error != "" {
			b.Fatalf("warm run: %v %q", err, resp.Error)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(bodies[i%len(bodies)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
}

// BenchmarkServeCodec is the /v1/run codec alone: an op decodes the
// three serveBodies and encodes the answer each got from the daemon.
func BenchmarkServeCodec(b *testing.B) {
	bodies := serveBodies(b)
	s := serve.New(serve.Config{Workers: 1})
	var resps []serve.RunResponse
	for _, req := range serveRequests() {
		resp, err := s.Do(&req)
		if err != nil || resp.Error != "" {
			b.Fatalf("run: %v %q", err, resp.Error)
		}
		resps = append(resps, resp)
	}
	s.Close()
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, body := range bodies {
			var req serve.RunRequest
			if err := serve.DecodeRequest(body, &req); err != nil {
				b.Fatal(err)
			}
			var err error
			if out, err = serve.AppendResponse(out[:0], &resps[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Planner micro-benchmarks: the optimized searches on a frozen mid-run
// state (profiled kinds, frontier one third in — see core.PlannerBench).
// Their reference-planner twins (BenchmarkPlanner*Ref) live in
// internal/core, on the same state, beside the reference they time.
func plannerBench(b *testing.B) *core.PlannerBench {
	b.Helper()
	pb := newPlannerBench(b, Tahoe)
	// Warm the benefit and knapsack caches: the steady state the runtime
	// spends its life in.
	pb.Global()
	pb.Local()
	return pb
}

func newPlannerBench(b *testing.B, p Policy) *core.PlannerBench {
	b.Helper()
	h := NewHMS(DRAM(), NVMBandwidth(0.5), 128*MB)
	w, err := BuildWorkload("cholesky", WorkloadParams{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(h)
	cfg.Policy = p
	pb, err := core.NewPlannerBench(w.Graph, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return pb
}

func BenchmarkPlannerGlobal(b *testing.B) {
	pb := plannerBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Global()
	}
}

func BenchmarkPlannerLocal(b *testing.B) {
	pb := plannerBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Local()
	}
}

func BenchmarkPlannerReplan(b *testing.B) {
	pb := plannerBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Replan()
	}
}

// BenchmarkPlannerLevel times PhaseBased's level search on the same
// frozen cholesky state, warm.
func BenchmarkPlannerLevel(b *testing.B) {
	pb := newPlannerBench(b, PhaseBased)
	pb.Level()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Level()
	}
}
