package core

import (
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
	for _, c := range cases {
		s, err := workloads.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Policy{NVMOnly, FirstTouch, HWCache, DRAMOnly} {
			cfg := DefaultConfig(h)
			cfg.Policy = p
			allocs := func(scale int) (float64, int) {
				g := s.Build(workloads.Params{Scale: scale}).Graph
				n := testing.AllocsPerRun(5, func() {
					if _, err := Run(g, cfg); err != nil {
						t.Fatal(err)
					}
				})
				return n, len(g.Tasks)
			}
			small, ns := allocs(c.small)
			large, nl := allocs(c.large)
			t.Logf("%s %v: %.0f allocs at %d tasks, %.0f at %d", c.app, p, small, ns, large, nl)
			if large-small > c.slack {
				t.Errorf("%s %v: %.0f allocs at %d tasks, %.0f at %d (+%.0f, want at most +%.0f)",
					c.app, p, small, ns, large, nl, large-small, c.slack)
			}
		}
	}
}
