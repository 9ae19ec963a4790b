package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/task"
)

// runTraced is the separate traced run behind the per-layer metrics. It
// alternates untraced and traced loops of a second each, so the ratio of
// their median times per op is the tracing overhead with machine drift
// cancelled, then makes one probe pass over the op list that times
// every layer the workload's own ops do not call.
func runTraced(workload string, ops []opSpec, seconds float64, spansPath string) (result, error) {
	start := time.Now()
	tr := newTracer(start)
	st, err := setup(workload, ops, tr)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	loopTr := newTracer(start)

	var (
		untracedMS, tracedMS []float64
		untracedOps          int
		gcCycles             uint64
		gcCPU, allCPU        float64
		attempted, failed    int
	)
	rounds := int(seconds / 2)
	if rounds < 1 {
		rounds = 1
	}
	runtime.GC()
	for k := 0; k < rounds; k++ {
		before := sample()
		r := st.loop(secs(seconds/float64(2*rounds)), nil)
		after := sample()
		untracedMS = append(untracedMS, r.meanCPUMS())
		untracedOps += len(r.ops)
		gcCycles += after.gcCycles - before.gcCycles
		gcCPU += after.gcCPU - before.gcCPU
		allCPU += after.allCPU - before.allCPU
		attempted, failed = attempted+len(r.ops), failed+r.failed
		if r.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failed op:", r.firstErr)
		}

		r = st.loop(secs(seconds/float64(2*rounds)), loopTr)
		tracedMS = append(tracedMS, r.meanCPUMS())
		attempted, failed = attempted+len(r.ops), failed+r.failed
		if r.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failed op:", r.firstErr)
		}
	}
	tr.merge(loopTr)

	hits, misses, err := st.probe(tr)
	if err != nil {
		return result{}, err
	}
	snap := st.srv.Snapshot()

	m := map[string]metric{
		"bench.trace_overhead_frac": {median(tracedMS)/median(untracedMS) - 1, "frac"},
		"go.gc_cycles_per_op":       {float64(gcCycles) / float64(untracedOps), "count"},
		"go.gc_cpu_frac":            {gcCPU / allCPU, "frac"},
		"placement.solver_hit_frac": {float64(hits) / float64(hits+misses), "frac"},
		"serve.accepted":            {float64(snap.Accepted), "count"},
		"serve.completed":           {float64(snap.Completed), "count"},
		"serve.failed":              {float64(snap.Failed), "count"},
		"serve.shed":                {float64(snap.Shed), "count"},
	}
	spanMedian := func(name, metricName string, scale float64, unit string) {
		us, _ := tr.durations(name)
		m[metricName] = metric{median(us) * scale, unit}
	}
	spanPerUnit := func(name, metricName string, scale float64, unit string) {
		us, work := tr.durations(name)
		total := 0.0
		for _, d := range us {
			total += d
		}
		m[metricName] = metric{total * scale / float64(work), unit}
	}
	spanMedian("placement.global", "placement.global_us", 1, "us")
	spanMedian("placement.local", "placement.local_us", 1, "us")
	spanMedian("placement.replan", "placement.replan_us", 1, "us")
	spanMedian("core.run", "core.run_ms", 1e-3, "ms")
	spanPerUnit("core.run", "core.run_us_per_task", 1, "us")
	spanPerUnit("model.task_demand", "model.task_demand_ns", 1e3, "ns")
	spanMedian("workloads.build", "workloads.build_ms", 1e-3, "ms")
	spanMedian("calib.calibrate", "calib.calibrate_ms", 1e-3, "ms")
	spanMedian("serve.do", "serve.do_ms", 1e-3, "ms")
	spanMedian("replay.record", "replay.record_ms", 1e-3, "ms")
	spanMedian("replay.save", "replay.save_ms", 1e-3, "ms")
	spanMedian("replay.load", "replay.load_ms", 1e-3, "ms")
	spanMedian("replay.replay", "replay.replay_ms", 1e-3, "ms")
	m["serve.http_ms"] = metric{median(tr.vals["serve.http_ms"]), "ms"}
	m["serve.wait_ms"] = metric{mean(tr.vals["serve.wait_ms"]), "ms"}
	m["serve.req_kb"] = metric{mean(tr.vals["serve.req_kb"]), "kB"}
	m["serve.resp_kb"] = metric{mean(tr.vals["serve.resp_kb"]), "kB"}
	m["trace.events"] = metric{mean(tr.vals["trace.events"]), "count"}
	m["trace.jsonl_kb"] = metric{mean(tr.vals["trace.jsonl_kb"]), "kB"}
	for k, v := range simCounters(st.results) {
		m[k] = v
	}

	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return result{}, err
		}
		fmt.Printf("perfbench: wrote %d spans to %s\n", len(tr.spans), spansPath)
	}
	fmt.Printf("perfbench: %d ops attempted (%d untraced), %d failed; %d rounds of untraced then traced loops, median %.4f vs %.4f ms/op; %d probe ops\n",
		attempted, untracedOps, failed, rounds, median(untracedMS), median(tracedMS), len(ops))
	printMetrics(m)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// probe makes one pass over the op list timing each layer from outside:
// the demand model over the op's tasks, the planner searches on the
// op's frozen mid-run state, a plain run, the record/save/load/replay
// chain, and the op as a daemon request over HTTP and through Server.Do.
// It returns the knapsack memo's hits and misses over all planner calls.
func (s *suite) probe(tr *tracer) (hits, misses int, err error) {
	if s.srv == nil {
		if err := s.startServer(); err != nil {
			return 0, 0, err
		}
	}
	for i := range s.ops {
		g, cfg := s.graphs[i], s.cfgs[i]

		half := func(task.ObjectID) float64 { return 0.5 }
		sp := tr.begin("model.task_demand", i)
		for _, t := range g.Tasks {
			_ = model.TaskDemand(t, cfg.HMS, half)
		}
		tr.end(sp, len(g.Tasks))

		pcfg := cfg
		if pcfg.Policy != core.Tahoe && pcfg.Policy != core.PhaseBased {
			pcfg.Policy = core.Tahoe // the planner on this op's graph and machine
		}
		pb, err := core.NewPlannerBench(g, pcfg)
		if err != nil {
			return 0, 0, fmt.Errorf("planner bench, op %d: %w", i, err)
		}
		pb.Global() // warm the benefit and knapsack caches, as the runtime runs
		pb.Local()
		for k := 0; k < 3; k++ {
			sp = tr.begin("placement.global", i)
			pb.Global()
			tr.end(sp, 1)
			sp = tr.begin("placement.local", i)
			pb.Local()
			tr.end(sp, 1)
			sp = tr.begin("placement.replan", i)
			pb.Replan()
			tr.end(sp, 1)
		}
		h, ms := pb.SolverStats()
		hits, misses = hits+h, misses+ms

		if s.workload != "managed" && s.workload != "unmanaged" {
			sp = tr.begin("core.run", i)
			res, err := core.Run(g, cfg)
			if err != nil {
				return 0, 0, fmt.Errorf("probe run, op %d: %w", i, err)
			}
			tr.end(sp, res.Tasks)
		}
		if s.workload != "record-replay" {
			if _, _, err := s.recordReplay(i, tr); err != nil {
				return 0, 0, fmt.Errorf("probe record-replay, op %d: %w", i, err)
			}
		}
		if s.workload != "serve-http" {
			if _, err := s.post(i, tr); err != nil {
				return 0, 0, fmt.Errorf("probe HTTP, op %d: %w", i, err)
			}
		}
		req := s.ops[i].request("probe")
		sp = tr.begin("serve.do", i)
		resp, err := s.srv.Do(&req)
		if err != nil {
			return 0, 0, fmt.Errorf("probe Do, op %d: %w", i, err)
		}
		tr.end(sp, resp.Tasks)
	}
	return hits, misses, nil
}

// simCounters averages the verification pass's simulated counters per
// op. They are simulated quantities, deterministic per seed.
func simCounters(rs []core.Result) map[string]metric {
	var mig, mb, failed, retries, overlap, exposed, samples, profSec, solverSec, replans, fbReplans, quar, hw float64
	for _, r := range rs {
		s := r.Migration
		mig += float64(s.Migrations)
		mb += float64(s.BytesMoved) / (1 << 20)
		failed += float64(s.Failed())
		retries += float64(s.Retries)
		overlap += s.OverlapFraction()
		exposed += s.ExposedSec * 1e3
		samples += r.ProfileSamples
		profSec += r.OverheadProfilingSec * 1e3
		solverSec += r.OverheadSolverSec * 1e3
		replans += float64(r.Replans)
		fbReplans += float64(r.FeedbackReplans)
		quar += float64(r.Quarantines)
		hw += float64(r.DRAMHighWaterBytes) / (1 << 20)
	}
	n := float64(len(rs))
	return map[string]metric{
		"migrate.migrations":               {mig / n, "count"},
		"migrate.mb_moved":                 {mb / n, "MB"},
		"migrate.failed":                   {failed / n, "count"},
		"migrate.retries":                  {retries / n, "count"},
		"migrate.overlap_frac":             {overlap / n, "frac"},
		"migrate.exposed_sim_ms":           {exposed / n, "sim_ms"},
		"prof.samples":                     {samples / n, "count"},
		"prof.overhead_sim_ms":             {profSec / n, "sim_ms"},
		"placement.solver_overhead_sim_ms": {solverSec / n, "sim_ms"},
		"core.replans":                     {replans / n, "count"},
		"feedback.replans":                 {fbReplans / n, "count"},
		"fault.quarantines":                {quar / n, "count"},
		"core.dram_high_water_mb":          {hw / n, "MB"},
	}
}
