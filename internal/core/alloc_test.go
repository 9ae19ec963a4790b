package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/mem"
	"repro/internal/workloads"
)

// TestTaskPathAllocFree checks that a run's dispatch → start → complete
// path allocates nothing per task under the policies that never plan:
// growing a graph several times over may add only the few allocations
// its larger per-run tables and deques take, not one per task.
func TestTaskPathAllocFree(t *testing.T) {
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

	// The planning policies add profiling, planning and migration, and
	// none of it may allocate per migration, replan or profiled pair:
	// from scale 6 to 24 (heat: 96 to 384 tasks; cholesky: 56 to 2,600
	// tasks and 0 to over 400 migrations) their allocations may grow by at
	// most managedSlack more than FirstTouch's on the same graphs. The GC
	// stays off so that it cannot empty the working-set pool between
	// runs; under the race detector sync.Pool drops items at random, so
	// the counts mean nothing there.
	if raceEnabled {
		t.Log("managed policies skipped: sync.Pool drops items at random under -race")
		return
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
