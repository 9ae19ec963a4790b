// Command tahoe runs one benchmark workload under one placement policy on
// a configurable simulated heterogeneous memory system and reports the
// result.
//
// Usage:
//
//	tahoe -workload cholesky -policy tahoe -nvm bw:0.5 -dram 128 -workers 8
//	tahoe -workload cg -cluster 4 -cluster-faults "nodes=4,node-rate=10,seed=7,horizon=0.05"
//	tahoe -list
package main

import (
	"flag"
	"fmt"
	"os"

	tahoe "repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		workload  = flag.String("workload", "cholesky", "workload name (see -list)")
		policy    = flag.String("policy", "tahoe", "dram|nvm|firsttouch|xmem|hwcache|phase|tahoe")
		machine   = cliutil.MachineFlags(flag.CommandLine)
		workers   = flag.Int("workers", 8, "simulated workers")
		scale     = flag.Int("scale", 0, "workload scale (0 = default)")
		scheduler = flag.String("sched", "worksteal", "worksteal|fifo|lifo|rank")
		lookahead = flag.Int("lookahead", 16, "proactive migration lookahead (tasks)")
		kernels   = flag.Bool("kernels", false, "execute and verify the real numerical kernels")
		calibrate = flag.Bool("calibrate", true, "calibrate model constant factors first")
		faults    = flag.String("faults", "", `fault schedule, e.g. "rate=1,seed=7,horizon=2" ("" = none)`)
		clusterN  = flag.Int("cluster", 0, "run the workload's strong-scaling decomposition across N nodes (0 = single-node)")
		rpn       = flag.Int("ranks-per-node", 1, "ranks per node in -cluster mode")
		clFaults  = flag.String("cluster-faults", "", `cluster fault schedule, e.g. "nodes=4,node-rate=10,dev-rate=5,seed=7,horizon=0.05" ("" = none)`)
		sampling  = flag.String("sampling", "", `profiler sampling, e.g. "interval=100000,jitter=0.4,adaptive" ("" = defaults)`)
		feedback  = flag.String("feedback", "", `observed-vs-predicted correction loop: "on" ("" = off)`)
		list      = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()

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

	p, err := cliutil.ParsePolicy(*policy)
	if err != nil {
		fail("%v", err)
	}
	sc, err := cliutil.ParseScheduler(*scheduler)
	if err != nil {
		fail("%v", err)
	}
	h, err := machine.Build()
	if err != nil {
		fail("%v", err)
	}
	cfg := tahoe.DefaultConfig(h)
	cfg.Policy = p
	cfg.Workers = *workers
	cfg.Scheduler = sc
	cfg.Lookahead = *lookahead
	cfg.RunKernels = *kernels
	if fs, err := cliutil.ParseFaults(*faults); err != nil {
		fail("%v", err)
	} else {
		cfg.Faults = fs
	}
	if pc, err := cliutil.ParseSampling(*sampling, cfg.Prof); err != nil {
		fail("%v", err)
	} else {
		cfg.Prof = pc
	}
	if fc, err := cliutil.ParseFeedback(*feedback, cfg.Feedback); err != nil {
		fail("%v", err)
	} else {
		cfg.Feedback = fc
	}
	if *calibrate {
		f, err := tahoe.Calibrate(h, tahoe.DefaultProfiler())
		if err != nil {
			fail("calibration: %v", err)
		}
		cfg.CFBw, cfg.CFLat = f.CFBw, f.CFLat
	}

	if *clusterN > 0 {
		if *kernels {
			fail("-kernels is not supported in -cluster mode")
		}
		if *faults != "" {
			fail("-faults is single-node; use -cluster-faults in -cluster mode")
		}
		if machine.CXLMB > 0 {
			fail("-cxl is not supported in -cluster mode")
		}
		runCluster(*workload, *scale, *clusterN, *rpn, *clFaults, machine, cfg)
		return
	}
	if *clFaults != "" {
		fail("-cluster-faults needs -cluster")
	}

	built, err := tahoe.BuildWorkload(*workload, tahoe.WorkloadParams{Scale: *scale, Kernels: *kernels})
	if err != nil {
		fail("%v", err)
	}

	res, err := tahoe.Run(built.Graph, cfg)
	if err != nil {
		fail("%v", err)
	}
	if *kernels && built.Check != nil {
		if err := built.Check(); err != nil {
			fail("kernel verification: %v", err)
		}
		fmt.Println("kernel verification: OK")
	}

	fmt.Printf("workload    %s (%d tasks, %d objects)\n", res.Workload, res.Tasks, len(built.Graph.Objects))
	if machine.CXLMB > 0 {
		fmt.Printf("machine     DRAM %d MB + CXL %d MB + %s, %d workers\n",
			machine.DRAMMB, machine.CXLMB, h.Device(0).Name, *workers)
	} else {
		fmt.Printf("machine     DRAM %d MB + %s, %d workers\n", machine.DRAMMB, h.Device(0).Name, *workers)
	}
	fmt.Printf("policy      %s (scheduler %s)\n", res.Policy, sc)
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
	if *sampling != "" {
		fmt.Printf("sampling    interval %d, jitter %g, adaptive %v (%.0f samples taken)\n",
			cfg.Prof.SamplingInterval, cfg.Prof.Jitter, cfg.Prof.Adaptive, res.ProfileSamples)
	}
	if *feedback != "" {
		fmt.Printf("feedback    %d active corrections, %d feedback replans\n",
			res.FeedbackCorrections, res.FeedbackReplans)
	}
	fmt.Printf("DRAM peak   %d MB of %d MB\n", res.DRAMHighWaterBytes>>20, machine.DRAMMB)
}

// runCluster runs the workload's strong-scaling decomposition across
// nodes, optionally on a degraded machine scripted by a cluster fault
// schedule, and reports the job plus its fault-tolerance accounting.
func runCluster(workload string, scale, nodes, rpn int, faultSpec string, machine *cliutil.MachineSpec, rank tahoe.Config) {
	d, err := tahoe.DistributedWorkload(workload)
	if err != nil {
		fail("%v", err)
	}
	cs, err := cliutil.ParseClusterFaults(faultSpec)
	if err != nil {
		fail("%v", err)
	}
	nvm, err := cliutil.ParseNVM(machine.NVM)
	if err != nil {
		fail("%v", err)
	}
	res, err := tahoe.StrongScale(d, tahoe.WorkloadParams{Scale: scale}, tahoe.ClusterConfig{
		Nodes:        nodes,
		RanksPerNode: rpn,
		NodeDRAM:     machine.DRAMMB * tahoe.MB,
		NVM:          nvm,
		Net:          tahoe.EdisonNetwork(),
		Rank:         rank,
		Faults:       cs,
	})
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("cluster     %d nodes x %d ranks, %d MB DRAM/node + %s\n",
		nodes, rpn, machine.DRAMMB, nvm.Name)
	fmt.Printf("policy      %s\n", rank.Policy)
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
