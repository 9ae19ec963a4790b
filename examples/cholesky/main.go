// Dense factorization example, in two acts:
//
//  1. verify numerical correctness: run the tiled Cholesky with its real
//     potrf/trsm/syrk/gemm kernels under the full runtime's dispatch
//     order and check A = L·Lᵀ;
//  2. compare every placement policy at full simulation scale (2 MB
//     tiles, 156 MB matrix) on an Optane-class machine.
package main

import (
	"fmt"
	"log"

	tahoe "repro"
)

func main() {
	h := tahoe.NewHMS(tahoe.DRAM(), tahoe.OptanePM(), 128*tahoe.MB)
	factors, err := tahoe.Calibrate(h, tahoe.DefaultProfiler())
	if err != nil {
		log.Fatal(err)
	}

	// Act 1: real kernels under the simulated runtime.
	w, err := tahoe.BuildWorkload("cholesky", tahoe.WorkloadParams{Kernels: true})
	if err != nil {
		log.Fatal(err)
	}
	cfg := tahoe.DefaultConfig(h)
	cfg.CFBw, cfg.CFLat = factors.CFBw, factors.CFLat
	cfg.RunKernels = true
	if _, err := tahoe.Run(w.Graph, cfg); err != nil {
		log.Fatal(err)
	}
	if err := w.Check(); err != nil {
		log.Fatalf("factorization wrong: %v", err)
	}
	fmt.Println("act 1: factorization verified (max |L·Lᵀ - A| within tolerance)")

	// Act 2: placement policies at full scale.
	sim, err := tahoe.BuildWorkload("cholesky", tahoe.WorkloadParams{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nact 2: %d tasks over %d tiles on DRAM+%s\n\n",
		len(sim.Graph.Tasks), len(sim.Graph.Objects), h.Device(0).Name)
	fmt.Println("policy      simulated   vs DRAM   migrations  overlap")
	var base float64
	for _, p := range []tahoe.Policy{
		tahoe.DRAMOnly, tahoe.NVMOnly, tahoe.HWCache,
		tahoe.FirstTouch, tahoe.XMem, tahoe.PhaseBased, tahoe.Tahoe,
	} {
		cfg := tahoe.DefaultConfig(h)
		cfg.Policy = p
		cfg.CFBw, cfg.CFLat = factors.CFBw, factors.CFLat
		res, err := tahoe.Run(sim.Graph, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if p == tahoe.DRAMOnly {
			base = res.Time
		}
		fmt.Printf("%-11s %.4f s    %.2fx     %-11d %.0f%%\n",
			p, res.Time, res.Time/base, res.Migration.Migrations,
			res.Migration.OverlapFraction()*100)
	}
}
