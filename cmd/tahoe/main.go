// Command tahoe runs one benchmark workload under one placement policy on
// a configurable simulated heterogeneous memory system and reports the
// result: a summary, or with -timeline the run's event timeline,
// per-kind statistics and migration log, or with -csv its raw event log.
//
// Usage:
//
//	tahoe -workload cholesky -policy tahoe -nvm bw:0.5 -dram 128 -workers 8
//	tahoe -timeline -workload heat -nvm optane -cxl 64 -dram 32
//	tahoe -workload cg -csv > events.csv
//	tahoe -workload cg -cluster 4 -cluster-faults "nodes=4,node-rate=10,seed=7,horizon=0.05"
//	tahoe -list
package main

import (
	"flag"
	"fmt"
	"os"

	tahoe "repro"
	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/trace"
)

func main() {
	var req cliutil.RunRequest
	flag.StringVar(&req.Workload, "workload", "cholesky", "workload name (see -list)")
	flag.StringVar(&req.Policy, "policy", "tahoe", "dram|nvm|firsttouch|xmem|hwcache|phase|tahoe")
	machine := cliutil.MachineFlags(flag.CommandLine)
	flag.IntVar(&req.Workers, "workers", 8, "simulated workers (0 = 8)")
	flag.IntVar(&req.Scale, "scale", 0, "workload scale (0 = default)")
	flag.StringVar(&req.Scheduler, "sched", "worksteal", "worksteal|fifo|lifo|rank")
	flag.IntVar(&req.Lookahead, "lookahead", 16, "proactive migration lookahead in tasks (0 = 16)")
	flag.StringVar(&req.Faults, "faults", "", `fault schedule, e.g. "rate=1,seed=7,horizon=2" ("" = none)`)
	flag.StringVar(&req.Feedback, "feedback", "", `observed-vs-predicted correction loop: "on" ("" = off)`)
	var (
		kernels   = flag.Bool("kernels", false, "execute and verify the real numerical kernels")
		calibrate = flag.Bool("calibrate", true, "calibrate model constant factors first")
		clusterN  = flag.Int("cluster", 0, "run the workload's strong-scaling decomposition across N nodes (0 = single-node)")
		rpn       = flag.Int("ranks-per-node", 1, "ranks per node in -cluster mode")
		clFaults  = flag.String("cluster-faults", "", `cluster fault schedule, e.g. "nodes=4,node-rate=10,dev-rate=5,seed=7,horizon=0.05" ("" = none)`)
		sampling  = flag.String("sampling", "", `profiler sampling, e.g. "interval=100000,jitter=0.4,adaptive" ("" = defaults)`)
		timeline  = flag.Bool("timeline", false, "render the run's timeline, concurrency, per-kind durations and migrations")
		cols      = flag.Int("cols", 100, "timeline width")
		csv       = flag.Bool("csv", false, "dump the run's raw event log as CSV")
		list      = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()
	req.Machine = *machine

	if *list {
		for _, s := range tahoe.Workloads() {
			kind := "calibration"
			if s.App {
				kind = "application"
			}
			fmt.Printf("%-10s %-12s %s\n", s.Name, kind, s.Description)
		}
		return
	}

	run, err := req.Resolve()
	if err != nil {
		fail("%v", err)
	}
	cfg := &run.Config
	cfg.RunKernels = *kernels
	if *kernels {
		if err := run.Workload.CheckKernels(run.Scale); err != nil {
			fail("%v", err)
		}
	}
	if cfg.Prof, err = cliutil.ParseSampling(*sampling, cfg.Prof); err != nil {
		fail("%v", err)
	}
	if *calibrate {
		f, err := tahoe.Calibrate(cfg.HMS, tahoe.DefaultProfiler())
		if err != nil {
			fail("calibration: %v", err)
		}
		cfg.CFBw, cfg.CFLat = f.CFBw, f.CFLat
	}

	if *clusterN > 0 {
		if *kernels {
			fail("-kernels is not supported in -cluster mode")
		}
		if req.Faults != "" {
			fail("-faults is single-node; use -cluster-faults in -cluster mode")
		}
		if machine.CXLMB > 0 {
			fail("-cxl is not supported in -cluster mode")
		}
		if *timeline || *csv {
			fail("-timeline and -csv are single-node")
		}
		runCluster(&run, *clusterN, *rpn, *clFaults, machine.DRAMMB)
		return
	}
	if *clFaults != "" {
		fail("-cluster-faults needs -cluster")
	}

	built := run.Build(nil)
	var tr *trace.Trace
	if *timeline || *csv {
		tr = &trace.Trace{}
		cfg.Trace = tr
	}
	res, err := tahoe.Run(built.Graph, *cfg)
	if err != nil {
		fail("%v", err)
	}
	if *kernels && built.Check != nil {
		if err := built.Check(); err != nil {
			fail("kernel verification: %v", err)
		}
		if !*csv {
			fmt.Println("kernel verification: OK")
		}
	}

	switch {
	case *csv:
		err = tr.WriteCSV(os.Stdout)
	case *timeline:
		err = printTimeline(req.Workload, res, tr, cfg.Workers, *cols)
	default:
		printSummary(&req, cfg, res, len(built.Graph.Objects), *sampling != "")
	}
	if err != nil {
		fail("%v", err)
	}
}

// printSummary reports one single-node run.
func printSummary(req *cliutil.RunRequest, cfg *tahoe.Config, res tahoe.Result, objects int, sampled bool) {
	fmt.Printf("workload    %s (%d tasks, %d objects)\n", res.Workload, res.Tasks, objects)
	nvm := cfg.HMS.Device(0).Name
	if req.Machine.CXLMB > 0 {
		fmt.Printf("machine     DRAM %d MB + CXL %d MB + %s, %d workers\n",
			req.Machine.DRAMMB, req.Machine.CXLMB, nvm, cfg.Workers)
	} else {
		fmt.Printf("machine     DRAM %d MB + %s, %d workers\n", req.Machine.DRAMMB, nvm, cfg.Workers)
	}
	fmt.Printf("policy      %s (scheduler %s)\n", res.Policy, cfg.Scheduler)
	fmt.Printf("time        %.6f s (simulated)\n", res.Time)
	fmt.Printf("plan        %s, %d replans\n", orNone(res.PlanKind), res.Replans)
	fmt.Printf("migrations  %d (%d MB moved, %.1f%% overlapped)\n",
		res.Migration.Migrations, res.Migration.BytesMoved>>20,
		res.Migration.OverlapFraction()*100)
	if cfg.Faults != nil {
		fmt.Printf("faults      %d injected, %d retries, %d abandoned, %d quarantines\n",
			res.FaultEvents, res.Migration.Retries, res.Migration.Abandoned, res.Quarantines)
	}
	fmt.Printf("overhead    %.2f%% of makespan (profiling %.4fs, solver %.4fs, sync %.4fs)\n",
		res.OverheadFraction()*100, res.OverheadProfilingSec, res.OverheadSolverSec, res.OverheadSyncSec)
	if sampled {
		fmt.Printf("sampling    interval %d, jitter %g, adaptive %v (%.0f samples taken)\n",
			cfg.Prof.SamplingInterval, cfg.Prof.Jitter, cfg.Prof.Adaptive, res.ProfileSamples)
	}
	if req.Feedback != "" {
		fmt.Printf("feedback    %d active corrections, %d feedback replans\n",
			res.FeedbackCorrections, res.FeedbackReplans)
	}
	fmt.Printf("DRAM peak   %d MB of %d MB\n", res.DRAMHighWaterBytes>>20, req.Machine.DRAMMB)
}

// printTimeline renders a traced run: the per-worker timeline, the
// concurrency, per-kind durations and the first migrations — the raw
// material behind the evaluation's analysis figures.
func printTimeline(workload string, res tahoe.Result, tr *trace.Trace, workers, cols int) error {
	fmt.Printf("%s under %s: %.4f s simulated, %d events\n\n", workload, res.Policy, res.Time, tr.Len())
	if err := tr.Timeline(os.Stdout, workers, cols); err != nil {
		return err
	}

	mean, peak := tr.Concurrency()
	fmt.Printf("\nconcurrency: mean %.2f, peak %d of %d workers\n", mean, peak, workers)

	fmt.Println("\nper-kind durations (s):")
	fmt.Printf("%-12s %6s %10s %10s %10s\n", "kind", "count", "mean", "min", "max")
	for _, k := range tr.ByKind() {
		fmt.Printf("%-12s %6d %10.6f %10.6f %10.6f\n", k.Kind, k.Count, k.Mean(), k.Min, k.Max)
	}

	migs := tr.Migrations()
	if len(migs) > 0 {
		fmt.Printf("\nmigrations (%d):\n", len(migs))
		show := migs
		if len(show) > 12 {
			show = show[:12]
		}
		for _, m := range show {
			fmt.Printf("  %8.4fs -> %8.4fs  obj#%d[%d] -> %-4s %4d MB\n",
				m.Start, m.End, m.Obj, m.Chunk, m.To, m.Bytes>>20)
		}
		if len(migs) > len(show) {
			fmt.Printf("  ... and %d more\n", len(migs)-len(show))
		}
	}
	return nil
}

// runCluster runs the workload's strong-scaling decomposition across
// nodes, optionally on a degraded machine scripted by a cluster fault
// schedule, and reports the job plus its fault-tolerance accounting.
// Each rank runs under the resolved configuration on a node of dramMB
// DRAM in front of its NVM.
func runCluster(run *cliutil.Run, nodes, rpn int, faultSpec string, dramMB int64) {
	d, err := tahoe.DistributedWorkload(run.Workload.Name)
	if err != nil {
		fail("%v", err)
	}
	cs, err := fault.ParseClusterSpec(faultSpec)
	if err != nil {
		fail("%v", err)
	}
	nvm := run.Config.HMS.Device(0)
	res, err := tahoe.StrongScale(d, tahoe.WorkloadParams{Scale: run.Scale}, tahoe.ClusterConfig{
		Nodes:        nodes,
		RanksPerNode: rpn,
		NodeDRAM:     dramMB * tahoe.MB,
		NVM:          nvm,
		Net:          tahoe.EdisonNetwork(),
		Rank:         run.Config,
		Faults:       cs,
	})
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("cluster     %d nodes x %d ranks, %d MB DRAM/node + %s\n",
		nodes, rpn, dramMB, nvm.Name)
	fmt.Printf("policy      %s\n", run.Config.Policy)
	fmt.Printf("job         %.6f s (compute %.6f s, comm %.6f s)\n",
		res.JobSec, res.ComputeSec, res.CommSec)
	if cs != nil {
		fmt.Printf("outages     %d opened, %d readmitted\n", res.NodeOutages, res.NodeReadmits)
		fmt.Printf("failovers   %d recovered, %d ranks lost (%.6f s lost work)\n",
			len(res.Failovers), res.LostRanks, res.LostWorkSec)
		fmt.Printf("recovery    %.6f s restage, %.6f s re-execution\n",
			res.RestageSec, res.ReexecSec)
		fmt.Printf("devices     %d quarantines, %d readmits across ranks\n",
			res.DeviceQuarantines, res.DeviceReadmits)
	}
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tahoe: "+format+"\n", args...)
	os.Exit(1)
}
