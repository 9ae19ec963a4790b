// Command tahoe-trace runs one workload with event tracing enabled and
// renders the timeline, per-kind statistics, and migration log — the raw
// material behind the evaluation's analysis figures.
//
// Usage:
//
//	tahoe-trace -workload wave -policy tahoe -dram 128
//	tahoe-trace -workload heat -nvm optane -cxl 64 -dram 32
//	tahoe-trace -workload cg -csv > events.csv
package main

import (
	"flag"
	"fmt"
	"os"

	tahoe "repro"
	"repro/internal/cliutil"
	"repro/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "wave", "workload name")
		policy   = flag.String("policy", "tahoe", "placement policy")
		machine  = cliutil.MachineFlags(flag.CommandLine)
		workers  = flag.Int("workers", 8, "simulated workers")
		cols     = flag.Int("cols", 100, "timeline width")
		csv      = flag.Bool("csv", false, "dump the raw event log as CSV")
	)
	flag.Parse()

	p, err := cliutil.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tahoe-trace: %v\n", err)
		os.Exit(1)
	}
	h, err := machine.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tahoe-trace: %v\n", err)
		os.Exit(1)
	}
	w, err := tahoe.BuildWorkload(*workload, tahoe.WorkloadParams{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tahoe-trace: %v\n", err)
		os.Exit(1)
	}
	f, err := tahoe.Calibrate(h, tahoe.DefaultProfiler())
	if err != nil {
		fmt.Fprintf(os.Stderr, "tahoe-trace: %v\n", err)
		os.Exit(1)
	}

	tr := &trace.Trace{}
	cfg := tahoe.DefaultConfig(h)
	cfg.Policy = p
	cfg.Workers = *workers
	cfg.CFBw, cfg.CFLat = f.CFBw, f.CFLat
	cfg.Trace = tr
	res, err := tahoe.Run(w.Graph, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tahoe-trace: %v\n", err)
		os.Exit(1)
	}

	if *csv {
		if err := tr.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "tahoe-trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s under %s: %.4f s simulated, %d events\n\n", *workload, res.Policy, res.Time, tr.Len())
	if err := tr.Timeline(os.Stdout, *workers, *cols); err != nil {
		fmt.Fprintf(os.Stderr, "tahoe-trace: %v\n", err)
		os.Exit(1)
	}

	mean, peak := tr.Concurrency()
	fmt.Printf("\nconcurrency: mean %.2f, peak %d of %d workers\n", mean, peak, *workers)

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
}
