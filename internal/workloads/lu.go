package workloads

import (
	"fmt"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name:        "lu",
		Description: "Tiled dense LU factorization without pivoting on an s×s tile grid",
		Build:       buildLU,
		App:         true,
	})
	register(Spec{
		Name:        "sparselu",
		Description: "Block-sparse LU with fill-in (BOTS-style pattern): an irregular task graph",
		Build:       buildSparseLU,
		App:         true,
	})
}

// luPattern says whether block (i, j) of the SparseLU input is non-null;
// the deterministic pattern mimics the BOTS benchmark's sparse structure.
func luPattern(i, j, s int) bool {
	if i == j {
		return true
	}
	return (i+j)%3 == 0 || i%2 == 0 && j%(3+i%2) == 0
}

// buildLUCommon constructs a tiled LU graph over the blocks where
// present(i,j) is true, computing fill-in symbolically first. A dense
// pattern (all true) yields the classic tiled LU.
func buildLUCommon(name string, p Params, present func(i, j, s int) bool, defaultScale int) Built {
	s := defScale(p.Scale, defaultScale)
	if p.Kernels && p.Scale <= 0 {
		s = 7
	}
	b := p.tileDim(512, 32)
	T := tileBytes(b)
	fb := float64(b)

	// Symbolic factorization: propagate fill-in.
	non := make([][]bool, s)
	for i := range non {
		non[i] = make([]bool, s)
		for j := range non[i] {
			non[i][j] = present(i, j, s)
		}
	}
	for k := 0; k < s; k++ {
		for i := k + 1; i < s; i++ {
			for j := k + 1; j < s; j++ {
				if non[i][k] && non[k][j] {
					non[i][j] = true
				}
			}
		}
	}

	bld := p.builder(name)
	ids := make([][]task.ObjectID, s)
	for i := range ids {
		ids[i] = make([]task.ObjectID, s)
		for j := range ids[i] {
			if non[i][j] {
				ids[i][j] = bld.Object(indexed("B", i, j), T)
			} else {
				ids[i][j] = -1
			}
		}
	}

	// Real buffers: diagonally dominant blocks so no-pivot LU is stable.
	var blocks [][]float64
	var orig []float64
	n := s * b
	if p.Kernels {
		blocks = make([][]float64, s*s)
		r := newRng(7)
		orig = make([]float64, n*n)
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				if !present(i, j, s) {
					continue
				}
				t := make([]float64, b*b)
				for x := 0; x < b; x++ {
					for y := 0; y < b; y++ {
						v := r.float() - 0.5
						if i == j && x == y {
							v += float64(2 * n) // dominance
						}
						t[x*b+y] = v
						orig[(i*b+x)*n+j*b+y] = v
					}
				}
				blocks[i*s+j] = t
			}
		}
		// Fill-in blocks start as zero.
		for i := 0; i < s; i++ {
			for j := 0; j < s; j++ {
				if non[i][j] && blocks[i*s+j] == nil {
					blocks[i*s+j] = make([]float64, b*b)
				}
			}
		}
	}
	blk := func(i, j int) []float64 { return blocks[i*s+j] }

	var firstErr error
	acc := make([]task.Access, 0, 3)
	for k := 0; k < s; k++ {
		k := k
		var run func()
		if p.Kernels {
			run = func() {
				if err := getrf(blk(k, k), b); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		bld.Submit("getrf", cpuSec(2*fb*fb*fb/3), factAccess(acc, b, ids[k][k]), run)
		for j := k + 1; j < s; j++ {
			if !non[k][j] {
				continue
			}
			j := j
			if p.Kernels {
				run = func() { trsmLLN(blk(k, k), blk(k, j), b) }
			}
			bld.Submit("trsm_row", cpuSec(fb*fb*fb), trsmAccess(acc, b, ids[k][k], ids[k][j]), run)
		}
		for i := k + 1; i < s; i++ {
			if !non[i][k] {
				continue
			}
			i := i
			if p.Kernels {
				run = func() { trsmRUN(blk(k, k), blk(i, k), b) }
			}
			bld.Submit("trsm_col", cpuSec(fb*fb*fb), trsmAccess(acc, b, ids[k][k], ids[i][k]), run)
		}
		for i := k + 1; i < s; i++ {
			if !non[i][k] {
				continue
			}
			i := i
			for j := k + 1; j < s; j++ {
				if !non[k][j] {
					continue
				}
				j := j
				if p.Kernels {
					run = func() { gemmNN(blk(i, k), blk(k, j), blk(i, j), b) }
				}
				bld.Submit("gemm", cpuSec(2*fb*fb*fb), gemmAccess(acc, b, ids[i][k], ids[k][j], ids[i][j]), run)
			}
		}
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			if firstErr != nil {
				return firstErr
			}
			// Reconstruct L·U (unit-lower L, upper U packed in blocks)
			// and compare against the original matrix.
			var worst float64
			at := func(i, j int) float64 {
				t := blk(i/b, j/b)
				if t == nil {
					return 0
				}
				return t[(i%b)*b+(j%b)]
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var sum float64
					kMax := i
					if j < kMax {
						kMax = j
					}
					for k := 0; k <= kMax; k++ {
						var l float64
						switch {
						case k == i:
							l = 1
						case k < i:
							l = at(i, k)
						}
						sum += l * at(k, j)
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
				return fmt.Errorf("%s: residual %g too large", name, worst)
			}
			return nil
		}
	}
	return built
}

func buildLU(p Params) Built {
	return buildLUCommon("lu", p, func(i, j, s int) bool { return true }, 10)
}

func buildSparseLU(p Params) Built {
	return buildLUCommon("sparselu", p, luPattern, 14)
}
