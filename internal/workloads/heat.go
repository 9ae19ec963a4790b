package workloads

import (
	"fmt"
	"math"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name:        "heat",
		Description: "Iterative 2D Jacobi heat diffusion over row bands, ping-pong buffered",
		Build:       buildHeat,
		App:         true,
	})
}

// buildHeat builds an iterative 5-point Jacobi solver on an n×n grid
// split into `bands` horizontal bands, with two ping-pong grid buffers.
// Scale is the number of Jacobi iterations (default 12); the grid is
// 4096² for simulation (128 MB per buffer) and 128² with kernels.
//
// Each band task reads its band plus one halo row from each neighbour in
// the source buffer and overwrites its band in the destination buffer, so
// the graph is an iterated diamond mesh — the task-parallel shape of the
// NPB-style iterative workloads, with heavy cross-iteration reuse that
// rewards a stable global placement.
func buildHeat(p Params) Built {
	iters := defScale(p.Scale, 12)
	n := 4096
	bands := 16
	if p.Kernels {
		n = 128
		bands = 4
	}
	rows := n / bands
	bandBytes := int64(8 * rows * n)
	haloBytes := int64(8 * n)

	bld := task.NewBuilder("heat")
	// Two buffers, one object per band each.
	obj := [2][]task.ObjectID{}
	for v := 0; v < 2; v++ {
		obj[v] = make([]task.ObjectID, bands)
		for r := 0; r < bands; r++ {
			obj[v][r] = bld.Object(fmt.Sprintf("U%d[%d]", v, r), bandBytes)
		}
	}

	var grid [2][]float64
	if p.Kernels {
		rng := newRng(3)
		grid[0] = make([]float64, n*n)
		grid[1] = make([]float64, n*n)
		for i := range grid[0] {
			grid[0][i] = rng.float()
		}
	}

	jacobiBand := func(src, dst []float64, r int) {
		lo, hi := r*rows, (r+1)*rows
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				c := src[i*n+j]
				up, down, left, right := c, c, c, c
				if i > 0 {
					up = src[(i-1)*n+j]
				}
				if i < n-1 {
					down = src[(i+1)*n+j]
				}
				if j > 0 {
					left = src[i*n+j-1]
				}
				if j < n-1 {
					right = src[i*n+j+1]
				}
				dst[i*n+j] = 0.25 * (up + down + left + right)
			}
		}
	}

	for it := 0; it < iters; it++ {
		src, dst := it%2, 1-it%2
		for r := 0; r < bands; r++ {
			r := r
			acc := []task.Access{
				{Obj: obj[src][r], Mode: task.In, Loads: lines(bandBytes), MLP: 6},
				{Obj: obj[dst][r], Mode: task.Out, Stores: lines(bandBytes), MLP: 6},
			}
			if r > 0 {
				acc = append(acc, task.Access{Obj: obj[src][r-1], Mode: task.In, Loads: lines(haloBytes), MLP: 6})
			}
			if r < bands-1 {
				acc = append(acc, task.Access{Obj: obj[src][r+1], Mode: task.In, Loads: lines(haloBytes), MLP: 6})
			}
			var run func()
			if p.Kernels {
				s, d := grid[src], grid[dst]
				run = func() { jacobiBand(s, d, r) }
			}
			bld.Submit("jacobi", cpuSec(4*float64(rows*n)), acc, run)
		}
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			// Serial reference from the same initial state.
			ref := [2][]float64{make([]float64, n*n), make([]float64, n*n)}
			rng := newRng(3)
			for i := range ref[0] {
				ref[0][i] = rng.float()
			}
			v0 := variance(ref[0])
			for it := 0; it < iters; it++ {
				for r := 0; r < bands; r++ {
					jacobiBand(ref[it%2], ref[1-it%2], r)
				}
			}
			got := grid[iters%2]
			want := ref[iters%2]
			if d := maxAbsDiff(got, want); d > 1e-12 {
				return fmt.Errorf("heat: parallel result differs from serial by %g", d)
			}
			// Diffusion must smooth: variance decreases from the start.
			if variance(got) >= v0 {
				return fmt.Errorf("heat: no smoothing observed")
			}
			return nil
		}
	}
	return built
}

func variance(x []float64) float64 {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	var s float64
	for _, v := range x {
		s += (v - mean) * (v - mean)
	}
	return s / float64(len(x))
}

// mustFinite guards kernel outputs in tests.
func mustFinite(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("workloads: non-finite value %g", x)
	}
	return nil
}
