package workloads

import (
	"fmt"
	"sync/atomic"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name:        "nqueens",
		Description: "N-Queens solution count: compute-bound control workload with negligible data",
		Build:       buildNQueens,
		App:         true,
	})
}

// knownQueens maps board size to the known solution count, for the check.
var knownQueens = map[int]int64{
	6: 4, 7: 40, 8: 92, 9: 352, 10: 724, 11: 2680, 12: 14200, 13: 73712,
}

// buildNQueens counts N-Queens solutions for board size Scale
// (default 12): one task per first-column placement, each exploring its
// subtree. Data objects are a tiny read-only configuration and per-task
// result slots — the control workload on which NVM should barely matter
// and any placement policy's overhead shows up undiluted.
func buildNQueens(p Params) Built {
	n := defScale(p.Scale, 12)
	if p.Kernels && p.Scale <= 0 {
		n = 9
	}

	bld := p.builder("nqueens")
	cfg := bld.ObjectOpt("config", 64, false)
	results := make([]task.ObjectID, n)
	var total int64

	// Subtree work estimate: the tree under a fixed first placement has
	// roughly n!/(n^2) nodes; we model ~35 ops per node.
	subtree := 1.0
	for i := 2; i <= n; i++ {
		subtree *= float64(i)
	}
	subtree /= float64(n * n)

	bld.Submit("init", cpuSec(100), []task.Access{
		{Obj: cfg, Mode: task.Out, Stores: 1, MLP: 1},
	}, nil)

	for col := 0; col < n; col++ {
		col := col
		results[col] = bld.ObjectOpt(indexed("res", col), 64, false)
		var run func()
		if p.Kernels {
			run = func() {
				first := uint32(1) << col
				cnt := countQueens(n, 1, first, first<<1, first>>1)
				atomic.AddInt64(&total, cnt)
			}
		}
		bld.Submit("explore", cpuSec(35*subtree), []task.Access{
			{Obj: cfg, Mode: task.In, Loads: 1, MLP: 1},
			{Obj: results[col], Mode: task.Out, Loads: 4, Stores: 4, MLP: 1},
		}, run)
	}

	redAcc := make([]task.Access, 0, n+1)
	for _, r := range results {
		redAcc = append(redAcc, task.Access{Obj: r, Mode: task.In, Loads: 1, MLP: 1})
	}
	bld.Submit("reduce", cpuSec(float64(10*n)), redAcc, nil)

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			want, ok := knownQueens[n]
			if !ok {
				return nil
			}
			if total != want {
				return fmt.Errorf("nqueens(%d): counted %d, want %d", n, total, want)
			}
			return nil
		}
	}
	return built
}

// countQueens counts completions of a partial placement using the
// classic bitmask backtracker: cols/diag1/diag2 are occupancy masks for
// row `row` onward.
func countQueens(n, row int, cols, d1, d2 uint32) int64 {
	if row == n {
		return 1
	}
	var count int64
	full := uint32(1<<n) - 1
	avail := full &^ (cols | d1 | d2)
	for avail != 0 {
		bit := avail & (-avail)
		avail ^= bit
		count += countQueens(n, row+1, cols|bit, (d1|bit)<<1, (d2|bit)>>1)
	}
	return count
}
