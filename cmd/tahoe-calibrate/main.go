// Command tahoe-calibrate computes the performance model's constant
// factors (CF_bw, CF_lat) and the measured peak bandwidth for a machine,
// by running the STREAM and pointer-chase calibration workloads — the
// paper's once-per-platform offline step.
//
// Usage:
//
//	tahoe-calibrate -nvm bw:0.5
//	tahoe-calibrate -nvm optane -interval 2000
//	tahoe-calibrate -nvm optane -cxl 64 -dram 32
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	tahoe "repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		machine  = cliutil.MachineFlags(flag.CommandLine)
		interval = flag.Int64("interval", 0, "counter sampling interval in accesses (0 = default 1000)")
	)
	flag.Parse()

	h, err := machine.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tahoe-calibrate: %v\n", err)
		os.Exit(1)
	}
	pc := tahoe.DefaultProfiler()
	if *interval > 0 {
		pc.SamplingInterval = *interval
	}
	f, err := tahoe.Calibrate(h, pc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tahoe-calibrate: %v\n", err)
		os.Exit(1)
	}
	names := make([]string, 0, h.NumTiers())
	for t := h.Fastest(); t >= 0; t-- {
		names = append(names, h.Device(t).Name)
	}
	fmt.Printf("machine   %s\n", strings.Join(names, " + "))
	fmt.Printf("sampling  every %d accesses\n", pc.SamplingInterval)
	fmt.Printf("CF_bw     %.4f\n", f.CFBw)
	fmt.Printf("CF_lat    %.4f\n", f.CFLat)
	fmt.Printf("peak BW   %.2f GB/s (STREAM-measured)\n", f.PeakBW/1e9)
}
