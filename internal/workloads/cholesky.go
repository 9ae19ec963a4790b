package workloads

import (
	"fmt"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name:        "cholesky",
		Description: "Tiled Cholesky factorization (potrf/trsm/syrk/gemm) on an s×s tile grid",
		Build:       buildCholesky,
		App:         true,
	})
}

// Traffic models for the dense tile kernels, in cache-line accesses per
// task on b×b float64 tiles (T = 8b² bytes). The gemm-class kernels
// re-stream one operand b/CacheBlock times (cache-blocked inner loops);
// the panel kernels are read-modify-write over their tiles. Each helper
// writes one task's access list over acc, a 3-slot scratch its caller
// reuses for every task, and returns it.
func tileBytes(b int) int64 { return int64(8 * b * b) }

func gemmAccess(acc []task.Access, b int, in1, in2, inout task.ObjectID) []task.Access {
	T := tileBytes(b)
	stream := lines(T) * int64(b) / CacheBlock
	return append(acc[:0],
		task.Access{Obj: in1, Mode: task.In, Loads: lines(T) + stream/2, MLP: 8},
		task.Access{Obj: in2, Mode: task.In, Loads: lines(T) + stream/2, MLP: 8},
		task.Access{Obj: inout, Mode: task.InOut, Loads: lines(T), Stores: lines(T), MLP: 8})
}

func syrkAccess(acc []task.Access, b int, in, inout task.ObjectID) []task.Access {
	T := tileBytes(b)
	stream := lines(T) * int64(b) / CacheBlock
	return append(acc[:0],
		task.Access{Obj: in, Mode: task.In, Loads: lines(T) + stream, MLP: 6},
		task.Access{Obj: inout, Mode: task.InOut, Loads: lines(T), Stores: lines(T), MLP: 6})
}

func trsmAccess(acc []task.Access, b int, diag, panel task.ObjectID) []task.Access {
	T := tileBytes(b)
	return append(acc[:0],
		task.Access{Obj: diag, Mode: task.In, Loads: lines(T) * int64(b) / (2 * CacheBlock), MLP: 4},
		task.Access{Obj: panel, Mode: task.InOut, Loads: lines(T), Stores: lines(T), MLP: 4})
}

func factAccess(acc []task.Access, b int, diag task.ObjectID) []task.Access {
	T := tileBytes(b)
	return append(acc[:0],
		task.Access{Obj: diag, Mode: task.InOut, Loads: lines(T), Stores: lines(T), MLP: 2})
}

// buildCholesky constructs the right-looking tiled Cholesky graph.
// Scale is the tile-grid dimension s (default 8); the matrix is the
// lower-triangular s(s+1)/2 tiles.
func buildCholesky(p Params) Built {
	s := defScale(p.Scale, 12)
	if p.Kernels && p.Scale <= 0 {
		s = 8
	}
	b := p.tileDim(512, 32)
	T := tileBytes(b)
	fb := float64(b)

	bld := p.builder("cholesky")
	ids := make([][]task.ObjectID, s)
	for i := range ids {
		ids[i] = make([]task.ObjectID, i+1)
		for j := 0; j <= i; j++ {
			ids[i][j] = bld.Object(indexed("A", i, j), T)
		}
	}

	// Real buffers: an SPD matrix held tile-wise, plus a dense copy of
	// the original for the final residual check.
	var tiles [][]float64
	var orig []float64
	n := s * b
	if p.Kernels {
		tiles = make([][]float64, s*(s+1)/2)
		r := newRng(42)
		// Generate a random M and form A = M·Mᵀ + n·I densely, then
		// scatter into tiles.
		m := make([]float64, n*n)
		for i := range m {
			m[i] = r.float() - 0.5
		}
		orig = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				var sum float64
				for k := 0; k < n; k++ {
					sum += m[i*n+k] * m[j*n+k]
				}
				if i == j {
					sum += float64(n)
				}
				orig[i*n+j] = sum
				orig[j*n+i] = sum
			}
		}
		for i := 0; i < s; i++ {
			for j := 0; j <= i; j++ {
				t := make([]float64, b*b)
				for ii := 0; ii < b; ii++ {
					copy(t[ii*b:(ii+1)*b], orig[(i*b+ii)*n+j*b:(i*b+ii)*n+j*b+b])
				}
				tiles[tileIdx(i, j)] = t
			}
		}
	}
	tile := func(i, j int) []float64 { return tiles[tileIdx(i, j)] }

	var firstErr error
	acc := make([]task.Access, 0, 3)
	for k := 0; k < s; k++ {
		k := k
		var run func()
		if p.Kernels {
			run = func() {
				if err := potrf(tile(k, k), b); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		bld.Submit("potrf", cpuSec(fb*fb*fb/3), factAccess(acc, b, ids[k][k]), run)
		for i := k + 1; i < s; i++ {
			i := i
			if p.Kernels {
				run = func() { trsmRLT(tile(k, k), tile(i, k), b) }
			}
			bld.Submit("trsm", cpuSec(fb*fb*fb), trsmAccess(acc, b, ids[k][k], ids[i][k]), run)
		}
		for i := k + 1; i < s; i++ {
			i := i
			for j := k + 1; j < i; j++ {
				j := j
				if p.Kernels {
					run = func() { gemmNT(tile(i, k), tile(j, k), tile(i, j), b) }
				}
				bld.Submit("gemm", cpuSec(2*fb*fb*fb), gemmAccess(acc, b, ids[i][k], ids[j][k], ids[i][j]), run)
			}
			if p.Kernels {
				run = func() { syrkNT(tile(i, k), tile(i, i), b) }
			}
			bld.Submit("syrk", cpuSec(fb*fb*fb), syrkAccess(acc, b, ids[i][k], ids[i][i]), run)
		}
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			if firstErr != nil {
				return firstErr
			}
			// Reconstruct L·Lᵀ and compare against the original matrix.
			var worst float64
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					var sum float64
					for k := 0; k <= j; k++ {
						li := tile(i/b, k/b)
						lj := tile(j/b, k/b)
						// Element L[i][k] is below-or-on the diagonal only.
						if k > i {
							continue
						}
						vi := li[(i%b)*b+k%b]
						vj := lj[(j%b)*b+k%b]
						sum += vi * vj
					}
					d := sum - orig[i*n+j]
					if d < 0 {
						d = -d
					}
					if d > worst {
						worst = d
					}
				}
			}
			if worst > 1e-6*float64(n) {
				return fmt.Errorf("cholesky: residual %g too large", worst)
			}
			return nil
		}
	}
	return built
}

// tileIdx flattens lower-triangular tile coordinates.
func tileIdx(i, j int) int { return i*(i+1)/2 + j }
