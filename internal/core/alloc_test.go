package core

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/workloads"
)

// TestRunAllocFree pins the steady state of kept runners: once a warm-up
// run has grown a kept runner's buffers for a graph, every further
// fault-free run of it allocates nothing, under NVM-only, FirstTouch,
// HW-Cache, DRAM-only, Tahoe and PhaseBased on both golden-grid
// machines, with each of the four schedulers (work stealing, FIFO, LIFO,
// Rank). Each run takes the runner the last one returned, which no
// garbage collection drops, so the counts hold with the GC on and under
// the race detector. One collection before counting lets the runtime's
// own first-collection set-up happen outside the counts.
func TestRunAllocFree(t *testing.T) {
	runtime.GC()
	const runs = 5
	for _, m := range goldenMachines {
		for _, app := range []string{"heat", "cholesky"} {
			s, err := workloads.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			g := s.Build(workloads.Params{Scale: 6}).Graph
			for _, p := range []Policy{NVMOnly, FirstTouch, HWCache, DRAMOnly, Tahoe, PhaseBased} {
				for _, sc := range []Scheduler{WorkSteal, FIFOQueue, LIFOQueue, RankSched} {
					cfg := DefaultConfig(m.hms)
					cfg.Policy, cfg.Scheduler = p, sc
					// AllocsPerRun(1, f) warms up with one f and then counts
					// one f exactly; f runs the graph several times.
					n := testing.AllocsPerRun(1, func() {
						for i := 0; i < runs; i++ {
							if _, err := Run(g, cfg); err != nil {
								t.Fatal(err)
							}
						}
					})
					if n != 0 {
						t.Errorf("%s/6 %v %v %s: %.0f allocs in %d warm runs, want 0", app, p, sc, m.name, n, runs)
					}
				}
			}
		}
	}
}

// TestTaskPathAllocFree checks that a run's dispatch → start → complete
// path allocates nothing per task and that the planning policies
// allocate nothing per migration, replan or profiled pair: growing a
// graph several times over may add only the few allocations a larger
// table costs, not one per task or per event. Like TestRunAllocFree it
// counts with the GC on, after one collection.
func TestTaskPathAllocFree(t *testing.T) {
	runtime.GC()
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	cases := []struct {
		app          string
		small, large int
		slack        float64
	}{
		{"heat", 6, 24, 4},      // 96 and 384 tasks
		{"cholesky", 6, 12, 24}, // 56 and 364 tasks, wider ready sets
	}
	allocs := func(app string, p Policy, scale int) (float64, int) {
		s, err := workloads.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		g := s.Build(workloads.Params{Scale: scale}).Graph
		cfg := DefaultConfig(h)
		cfg.Policy = p
		n := testing.AllocsPerRun(5, func() {
			if _, err := Run(g, cfg); err != nil {
				t.Fatal(err)
			}
		})
		return n, len(g.Tasks)
	}
	for _, c := range cases {
		for _, p := range []Policy{NVMOnly, FirstTouch, HWCache, DRAMOnly} {
			small, ns := allocs(c.app, p, c.small)
			large, nl := allocs(c.app, p, c.large)
			t.Logf("%s %v: %.0f allocs at %d tasks, %.0f at %d", c.app, p, small, ns, large, nl)
			if large-small > c.slack {
				t.Errorf("%s %v: %.0f allocs at %d tasks, %.0f at %d (+%.0f, want at most +%.0f)",
					c.app, p, small, ns, large, nl, large-small, c.slack)
			}
		}
	}

	// The planning policies add profiling, planning and migration: from
	// scale 6 to 24 (heat: 96 to 384 tasks; cholesky: 56 to 2,600 tasks
	// and 0 to over 400 migrations) their allocations may grow by at most
	// managedSlack more than FirstTouch's on the same graphs.
	const managedSlack = 32
	for _, app := range []string{"heat", "cholesky"} {
		ftSmall, _ := allocs(app, FirstTouch, 6)
		ftLarge, _ := allocs(app, FirstTouch, 24)
		for _, p := range []Policy{Tahoe, PhaseBased} {
			small, ns := allocs(app, p, 6)
			large, nl := allocs(app, p, 24)
			extra := (large - small) - (ftLarge - ftSmall)
			t.Logf("%s %v: %.0f allocs at %d tasks, %.0f at %d (+%.0f beyond FirstTouch's growth)",
				app, p, small, ns, large, nl, extra)
			if extra > managedSlack {
				t.Errorf("%s %v: %.0f allocs at %d tasks, %.0f at %d: grows %.0f more than FirstTouch's %.0f -> %.0f, want at most %d",
					app, p, small, ns, large, nl, extra, ftSmall, ftLarge, managedSlack)
			}
		}
	}
}
