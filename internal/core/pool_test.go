package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/task"
)

// TestGoldenRunsPooled runs the golden grid in reverse order, so each run
// inherits the working set of a different predecessor than in
// TestGoldenRuns, and then from four goroutines at once, so working sets
// also change hands between goroutines mid-grid. Every line must still
// equal the golden file: nothing a run leaves in a pooled working set may
// reach the next run's results.
func TestGoldenRunsPooled(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases, want := goldenCases(t), goldenWant(t)
	if len(cases) != len(want) {
		t.Fatalf("%d runs, golden file has %d", len(cases), len(want))
	}
	check := func(order string, i int, got string) {
		if got != want[i] {
			t.Errorf("%s: run %d differs:\n got  %s\n want %s", order, i, got, want[i])
		}
	}
	for i := len(cases) - 1; i >= 0; i-- {
		c := cases[i]
		check("reversed", i, goldenRun(t, c.name, c.app, c.scale, c.cfg))
	}

	var next atomic.Int64
	next.Store(int64(len(cases)))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(-1)); i >= 0; i = int(next.Add(-1)) {
				c := cases[i]
				check("concurrent", i, goldenRun(t, c.name, c.app, c.scale, c.cfg))
			}
		}()
	}
	wg.Wait()
}

// TestManagedRecycle checks the working-set pool's gate: a set holding
// more than managedBudget bytes is dropped, a smaller one is pooled, and
// either way recycling clears every reference into the run it served.
// (The pooled set has no flow carriers: a later run in this binary may
// take it, and fake carriers would break that run.)
func TestManagedRecycle(t *testing.T) {
	tk := &task.Task{}
	fill := func(m *managed) {
		m.pt.users = [][]task.TaskID{{1, 2}}
		m.pt.future = []*task.Task{tk}
		m.pt.byLevel = [][]*task.Task{{tk}}
	}
	cleared := func(m *managed) bool {
		return m.pt.users[0] == nil && m.pt.future[0] == nil && m.pt.byLevel[0][0] == nil
	}

	huge := new(managed)
	fill(huge)
	r := &runner{}
	huge.flows = []*taskFlow{{r: r}}
	huge.planFlows = []*planFlow{{r: r}}
	huge.pt.taskBuf = make([]uint64, managedBudget/8+1)
	if huge.recycle() {
		t.Errorf("a working set of %d bytes was pooled; the budget is %d", huge.footprint(), managedBudget)
	}
	if !cleared(huge) || huge.flows[0].r != nil || huge.planFlows[0].r != nil {
		t.Error("a dropped working set kept references into its run")
	}

	small := new(managed)
	fill(small)
	if !small.recycle() {
		t.Errorf("a working set of %d bytes was dropped; the budget is %d", small.footprint(), managedBudget)
	}
	if !cleared(small) {
		t.Error("a pooled working set kept references into its run")
	}
}
