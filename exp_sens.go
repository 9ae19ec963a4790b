package tahoe

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/workloads"
)

func init() {
	registerExperiment(Experiment{"E8", "Strong scaling: workers 1..32 (CG)", expE8})
	registerExperiment(Experiment{"E9", "DRAM-size sensitivity (64/128/256 MB)", expE9})
	registerExperiment(Experiment{"E10", "Optane-class NVM and the read/write distinction", expE10})
	registerExperiment(Experiment{"E11", "Scheduler ablation under Tahoe", expE11})
	registerExperiment(Experiment{"E12", "Proactive-migration lookahead sweep", expE12})
}

// expE8 reproduces the strong-scaling study on the iterative CG solver:
// at each worker count, DRAM-only, Tahoe and NVM-only, normalized to
// DRAM-only at that count.
func expE8(opt ExpOptions) (*Table, error) {
	t := report.New("E8", "CG strong scaling (normalized per worker count)",
		"Workers", "DRAM-only", "Tahoe", "NVM-only", "DRAM-only (s)")
	s, err := workloads.ByName("cg")
	if err != nil {
		return nil, err
	}
	g := buildApp(s, opt)
	h := hmsBW(0.5)
	counts := []int{1, 2, 4, 8, 16, 32}
	if opt.Quick {
		counts = []int{1, 4, 16}
	}
	rows, err := runCells(opt, len(counts), func(i int) ([][]string, error) {
		w := counts[i]
		run := func(p core.Policy) float64 {
			cfg := expConfig(h, p)
			cfg.Workers = w
			return mustRun(g, cfg).Time
		}
		base := run(core.DRAMOnly)
		return oneRow(report.Int(w), "1.00",
			report.Norm(run(core.Tahoe), base),
			report.Norm(run(core.NVMOnly), base),
			report.Sec(base)), nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.Note("expected shape: the NVM gap persists across scales; Tahoe tracks DRAM-only throughout")
	return t, nil
}

// expE9 reproduces the DRAM-size sensitivity study.
func expE9(opt ExpOptions) (*Table, error) {
	t := report.New("E9", "Tahoe vs DRAM size (normalized to DRAM-only)",
		"Workload", "NVM-only", "64 MB", "128 MB", "256 MB")
	sizes := []int64{64 * mem.MB, 128 * mem.MB, 256 * mem.MB}
	apps := expApps(opt)
	rows, err := runCells(opt, len(apps), func(i int) ([][]string, error) {
		s := apps[i]
		g := buildApp(s, opt)
		base := mustRun(g, expConfig(hmsBW(0.5), core.DRAMOnly)).Time
		row := []string{s.Name,
			report.Norm(mustRun(g, expConfig(hmsBW(0.5), core.NVMOnly)).Time, base)}
		for _, sz := range sizes {
			h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), sz)
			row = append(row, report.Norm(mustRun(g, expConfig(h, core.Tahoe)).Time, base))
		}
		return oneRow(row...), nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.Note("expected shape: graceful degradation as DRAM shrinks; large-object workloads suffer most at 64 MB")
	return t, nil
}

// expE10 reproduces the real-NVM study: an Optane-class device (3x read
// and 7x write bandwidth deficit, 30x read latency) with Memory Mode,
// X-Mem, and Tahoe with and without the read/write distinction.
func expE10(opt ExpOptions) (*Table, error) {
	t := report.New("E10", "Optane-class NVM (normalized to DRAM-only)",
		"Workload", "NVM-only", "MemoryMode", "X-Mem", "Tahoe w/o r/w", "Tahoe w. r/w")
	h := hmsOptane()
	names := []string{"cholesky", "lu", "heat", "cg", "sort", "fft", "stream", "wave"}
	if opt.Quick {
		names = []string{"cholesky", "heat", "cg"}
	}
	rows, err := runCells(opt, len(names), func(i int) ([][]string, error) {
		name := names[i]
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		g := buildApp(s, opt)
		base := mustRun(g, expConfig(h, core.DRAMOnly)).Time
		noRW := expConfig(h, core.Tahoe)
		noRW.Tech.DistinguishRW = false
		return oneRow(name,
			report.Norm(mustRun(g, expConfig(h, core.NVMOnly)).Time, base),
			report.Norm(mustRun(g, expConfig(h, core.HWCache)).Time, base),
			report.Norm(mustRun(g, expConfig(h, core.XMem)).Time, base),
			report.Norm(mustRun(g, noRW).Time, base),
			report.Norm(mustRun(g, expConfig(h, core.Tahoe)).Time, base)), nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.Note("Optane: read 3.9 GB/s, write 1.3 GB/s, 300/150 ns; the r/w distinction shows on " +
		"workloads with read/write-asymmetric objects (stream's pure-write a vs pure-read b, c); " +
		"on symmetric-object workloads the two models tie, differing only in sampling-noise tie-breaks")
	return t, nil
}

// expE11 is the task-parallel-specific scheduler ablation.
func expE11(opt ExpOptions) (*Table, error) {
	t := report.New("E11", "Scheduler ablation under Tahoe (normalized to work stealing)",
		"Workload", "worksteal", "fifo", "lifo", "rank")
	h := hmsBW(0.5)
	names := []string{"cholesky", "sparselu", "wave"}
	if opt.Quick {
		names = names[:1]
	}
	rows, err := runCells(opt, len(names), func(i int) ([][]string, error) {
		name := names[i]
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		g := buildApp(s, opt)
		run := func(sc core.Scheduler) float64 {
			cfg := expConfig(h, core.Tahoe)
			cfg.Scheduler = sc
			return mustRun(g, cfg).Time
		}
		base := run(core.WorkSteal)
		return oneRow(name, "1.00",
			report.Norm(run(core.FIFOQueue), base),
			report.Norm(run(core.LIFOQueue), base),
			report.Norm(run(core.RankSched), base)), nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.Note("placement quality is scheduler-sensitive only through profiling order and migration overlap windows")
	return t, nil
}

// expE12 is the task-parallel-specific lookahead sweep: how far ahead the
// proactive scan must look to hide migration under execution.
func expE12(opt ExpOptions) (*Table, error) {
	t := report.New("E12", "Proactive lookahead sweep (Tahoe, wave workload)",
		"Lookahead", "Time (norm)", "Overlap", "Migrations")
	h := hmsBW(0.5)
	s, err := workloads.ByName("wave")
	if err != nil {
		return nil, err
	}
	g := buildApp(s, opt)
	depths := []int{0, 2, 4, 8, 16, 32}
	if opt.Quick {
		depths = []int{0, 8, 32}
	}
	results, err := runCells(opt, len(depths), func(i int) (core.Result, error) {
		d := depths[i]
		cfg := expConfig(h, core.Tahoe)
		cfg.Tech.GlobalSearch = false // isolate the per-task plan's machinery
		cfg.Lookahead = d
		if d == 0 {
			cfg.Tech.Proactive = false
		}
		return mustRun(g, cfg), nil
	})
	if err != nil {
		return nil, err
	}
	base := results[0].Time
	for i, r := range results {
		t.AddRow(fmt.Sprintf("%d", depths[i]),
			report.Norm(r.Time, base),
			report.Pct(r.Migration.OverlapFraction()),
			report.Int(r.Migration.Migrations))
	}
	t.Note("lookahead 0 = reactive migration at dispatch; the sweep exposes the tradeoff: " +
		"too little lookahead misses the window to hide copies, too much thrashes between " +
		"the phases' conflicting targets — the default (16) sits at the sweet spot")
	return t, nil
}

func init() {
	registerExperiment(Experiment{"E16", "Chunk-granularity sweep (CG's partitionable matrix)", expE16})
}

// expE16 ablates the large-object partitioning granularity: CG's CSR
// matrix exceeds half of DRAM, so it only helps if split; too-coarse
// chunks cannot fit the available headroom, too-fine ones multiply the
// helper-queue traffic. The paper's conservative fixed policy
// (DRAM/8-sized chunks) corresponds to the middle of this sweep.
func expE16(opt ExpOptions) (*Table, error) {
	t := report.New("E16", "CG vs chunk size (normalized to DRAM-only)",
		"Chunk target", "Chunks of A", "Time", "Migrations", "DRAM peak (MB)")
	h := hmsBW(0.5)
	s, err := workloads.ByName("cg")
	if err != nil {
		return nil, err
	}
	g := buildApp(s, opt)
	base := mustRun(g, expConfig(h, core.DRAMOnly)).Time
	targets := []int64{0, 64 * mem.MB, 32 * mem.MB, 16 * mem.MB, 8 * mem.MB, 4 * mem.MB}
	labels := []string{"off", "64 MB", "32 MB", "16 MB", "8 MB", "4 MB"}
	rows, err := runCells(opt, len(targets), func(i int) ([][]string, error) {
		tgt := targets[i]
		cfg := expConfig(h, core.Tahoe)
		if tgt == 0 {
			cfg.Tech.Chunking = false
		} else {
			cfg.ChunkTarget = tgt
			cfg.MaxChunks = 64
		}
		r := mustRun(g, cfg)
		chunks := 1
		if tgt > 0 {
			// Mirror the runtime's chunk plan for the label.
			size := objectSize(g, "A")
			n := int((size + tgt - 1) / tgt)
			if n > cfg.MaxChunks {
				n = cfg.MaxChunks
			}
			if size > h.Capacity(h.Fastest())/2 && n > 1 {
				chunks = n
			}
		}
		return oneRow(labels[i], report.Int(chunks),
			report.Norm(r.Time, base),
			report.Int(r.Migration.Migrations),
			report.MB(r.DRAMHighWaterBytes)), nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.Note("chunking only applies to objects larger than half of DRAM; finer chunks let the knapsack fill the headroom a whole object cannot")
	return t, nil
}

// objectSize finds a named object's size in a graph.
func objectSize(g *Graph, name string) int64 {
	for _, o := range g.Objects {
		if o.Name == name {
			return o.Size
		}
	}
	return 0
}
