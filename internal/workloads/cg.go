package workloads

import (
	"fmt"
	"math"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name:        "cg",
		Description: "Conjugate gradient on a 5-point Laplacian in CSR form, banded tasks per iteration",
		Build:       buildCG,
		App:         true,
	})
}

// buildCG builds Scale iterations (default 16) of conjugate gradient on
// the 5-point Laplacian of a g×g grid stored in CSR. The matrix bands
// are large, read-only, streamed objects; the vector bands are small and
// reused every iteration; the scalar reductions serialize through tiny
// objects exactly as the real algorithm's dot products do. This is the
// task-parallel shape of NPB CG: one big latency/bandwidth-mixed matrix
// and hot vectors, iterated.
func buildCG(p Params) Built {
	iters := defScale(p.Scale, 16)
	g := 1280
	bands := 8
	if p.Kernels {
		g = 64
		bands = 4
	}
	n := g * g
	rowsPer := n / bands

	// CSR sizes: 5-point stencil, ~5 nonzeros per row; values 8 B plus
	// column index 4 B, plus the row-pointer array. The matrix is one
	// large, read-only, chunkable object — the shape the paper's
	// large-object partitioning targets: too big for DRAM as a whole,
	// regular enough to split, and read by independent tasks so chunking
	// costs no parallelism.
	nnz := int64(5 * n)
	matBytes := nnz*12 + int64(4*n)
	matBandBytes := matBytes / int64(bands)
	vecBandBytes := int64(8 * rowsPer)

	bld := p.builder("cg")
	matID := bld.Object("A", matBytes)
	vec := func(name string) []task.ObjectID {
		ids := make([]task.ObjectID, bands)
		for r := range ids {
			ids[r] = bld.Object(indexed(name, r), vecBandBytes)
		}
		return ids
	}
	xID, rID, pID, qID := vec("x"), vec("r"), vec("p"), vec("q")
	// Scalar accumulators (one cache line each).
	rhoID := bld.ObjectOpt("rho", 64, false)
	pqID := bld.ObjectOpt("pq", 64, false)

	// Real state.
	type csr struct {
		rowptr []int32
		col    []int32
		val    []float64
	}
	var (
		mat           csr
		x, rv, pv, qv []float64
		rho, pq       float64
		rho0          float64
	)
	if p.Kernels {
		mat.rowptr = make([]int32, n+1)
		for i := 0; i < n; i++ {
			row := i / g
			colIdx := i % g
			push := func(j int, v float64) {
				mat.col = append(mat.col, int32(j))
				mat.val = append(mat.val, v)
			}
			if row > 0 {
				push(i-g, -1)
			}
			if colIdx > 0 {
				push(i-1, -1)
			}
			push(i, 4)
			if colIdx < g-1 {
				push(i+1, -1)
			}
			if row < g-1 {
				push(i+g, -1)
			}
			mat.rowptr[i+1] = int32(len(mat.col))
		}
		x = make([]float64, n)
		rv = make([]float64, n)
		pv = make([]float64, n)
		qv = make([]float64, n)
		rng := newRng(11)
		for i := range rv {
			rv[i] = rng.float()
			pv[i] = rv[i]
		}
		for _, v := range rv {
			rho0 += v * v
		}
		rho = rho0
	}

	spmvBand := func(band int) {
		lo, hi := band*rowsPer, (band+1)*rowsPer
		for i := lo; i < hi; i++ {
			var s float64
			for k := mat.rowptr[i]; k < mat.rowptr[i+1]; k++ {
				s += mat.val[k] * pv[mat.col[k]]
			}
			qv[i] = s
		}
	}

	// Vector band access helper: the SpMV gathers p across neighbouring
	// bands (the Laplacian couples adjacent rows only).
	pAccess := func(acc []task.Access, band int) []task.Access {
		acc = append(acc[:0],
			task.Access{Obj: matID, Mode: task.In, Loads: lines(matBandBytes), MLP: 3},
			task.Access{Obj: pID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 2},
			task.Access{Obj: qID[band], Mode: task.Out, Stores: lines(vecBandBytes), MLP: 6})
		if band > 0 {
			acc = append(acc, task.Access{Obj: pID[band-1], Mode: task.In, Loads: lines(int64(8 * g)), MLP: 2})
		}
		if band < bands-1 {
			acc = append(acc, task.Access{Obj: pID[band+1], Mode: task.In, Loads: lines(int64(8 * g)), MLP: 2})
		}
		return acc
	}

	for it := 0; it < iters; it++ {
		// q = A·p
		for band := 0; band < bands; band++ {
			band := band
			var run func()
			if p.Kernels {
				run = func() { spmvBand(band) }
			}
			bld.Submit("spmv", cpuSec(2*5*float64(rowsPer)), pAccess(make([]task.Access, 0, 5), band), run)
		}
		// pq = p·q (serialized scalar reduction)
		for band := 0; band < bands; band++ {
			band := band
			var run func()
			if p.Kernels {
				run = func() {
					if band == 0 {
						pq = 0
					}
					lo, hi := band*rowsPer, (band+1)*rowsPer
					for i := lo; i < hi; i++ {
						pq += pv[i] * qv[i]
					}
				}
			}
			bld.Submit("dot_pq", cpuSec(2*float64(rowsPer)), []task.Access{
				{Obj: pID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: qID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: pqID, Mode: task.InOut, Loads: 1, Stores: 1, MLP: 1},
			}, run)
		}
		// x += alpha·p ; r -= alpha·q ; rho' = r·r
		for band := 0; band < bands; band++ {
			band := band
			var run func()
			if p.Kernels {
				run = func() {
					alpha := rho / pq
					lo, hi := band*rowsPer, (band+1)*rowsPer
					for i := lo; i < hi; i++ {
						x[i] += alpha * pv[i]
						rv[i] -= alpha * qv[i]
					}
				}
			}
			bld.Submit("axpy", cpuSec(4*float64(rowsPer)), []task.Access{
				{Obj: pqID, Mode: task.In, Loads: 1, MLP: 1},
				{Obj: rhoID, Mode: task.In, Loads: 1, MLP: 1},
				{Obj: pID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: qID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: xID[band], Mode: task.InOut, Loads: lines(vecBandBytes), Stores: lines(vecBandBytes), MLP: 6},
				{Obj: rID[band], Mode: task.InOut, Loads: lines(vecBandBytes), Stores: lines(vecBandBytes), MLP: 6},
			}, run)
		}
		for band := 0; band < bands; band++ {
			band := band
			var run func()
			if p.Kernels {
				run = func() {
					if band == 0 {
						// Stash old rho in pq's slot role: beta = rho'/rho.
						pq = rho
						rho = 0
					}
					lo, hi := band*rowsPer, (band+1)*rowsPer
					for i := lo; i < hi; i++ {
						rho += rv[i] * rv[i]
					}
				}
			}
			bld.Submit("dot_rr", cpuSec(2*float64(rowsPer)), []task.Access{
				{Obj: rID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: rhoID, Mode: task.InOut, Loads: 1, Stores: 1, MLP: 1},
			}, run)
		}
		// p = r + beta·p
		for band := 0; band < bands; band++ {
			band := band
			var run func()
			if p.Kernels {
				run = func() {
					beta := rho / pq
					lo, hi := band*rowsPer, (band+1)*rowsPer
					for i := lo; i < hi; i++ {
						pv[i] = rv[i] + beta*pv[i]
					}
				}
			}
			bld.Submit("update_p", cpuSec(2*float64(rowsPer)), []task.Access{
				{Obj: rhoID, Mode: task.In, Loads: 1, MLP: 1},
				{Obj: pqID, Mode: task.In, Loads: 1, MLP: 1}, // beta reads the stashed old rho
				{Obj: rID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: pID[band], Mode: task.InOut, Loads: lines(vecBandBytes), Stores: lines(vecBandBytes), MLP: 6},
			}, run)
		}
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			if err := mustFinite(rho); err != nil {
				return err
			}
			// The task-parallel run must match a serial execution of the
			// identical algorithm exactly: the reduction chains serialize
			// through the scalar objects in band order, so even the
			// floating-point summation order is the same.
			rx, rrho := cgSerialReference(mat.rowptr, mat.col, mat.val, n, iters)
			if d := math.Abs(rrho - rho); d > 1e-9*math.Max(1, rrho) {
				return fmt.Errorf("cg: parallel rho %g != serial %g", rho, rrho)
			}
			if d := maxAbsDiff(x, rx); d > 1e-9 {
				return fmt.Errorf("cg: solution differs from serial by %g", d)
			}
			return nil
		}
	}
	return built
}

// cgSerialReference replays the exact CG recurrence serially from the
// same deterministic initial state.
func cgSerialReference(rowptr, col []int32, val []float64, n, iters int) ([]float64, float64) {
	x := make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)
	rng := newRng(11)
	var rho float64
	for i := range r {
		r[i] = rng.float()
		p[i] = r[i]
	}
	for _, v := range r {
		rho += v * v
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			var s float64
			for k := rowptr[i]; k < rowptr[i+1]; k++ {
				s += val[k] * p[col[k]]
			}
			q[i] = s
		}
		var pq float64
		for i := 0; i < n; i++ {
			pq += p[i] * q[i]
		}
		alpha := rho / pq
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		old := rho
		rho = 0
		for i := 0; i < n; i++ {
			rho += r[i] * r[i]
		}
		beta := rho / old
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
	}
	return x, rho
}
