package workloads

import (
	"fmt"
	"math"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name: "qr",
		Description: "Block modified Gram-Schmidt QR factorization: panel orthogonalization " +
			"with a left-looking projection sweep",
		Build: buildQR,
		App:   true,
	})
}

// buildQR factorizes a tall matrix of Scale block columns (default 10),
// each a (Scale·b)×b panel, into Q (orthonormal columns) and R
// (upper-triangular blocks) by block modified Gram-Schmidt:
//
//	for j = 0..s-1:
//	    for i = 0..j-1:   R[i][j] = Q_iᵀ A_j ;  A_j -= Q_i R[i][j]   (proj)
//	    Q_j, R[j][j] = MGS(A_j)                                      (panel)
//
// The projection sweep makes column j depend on every earlier panel — a
// left-looking triangular graph (the mirror of Cholesky's right-looking
// one) whose hot set is the growing Q prefix.
func buildQR(p Params) Built {
	s := defScale(p.Scale, 10)
	b := p.tileDim(512, 24)
	rows := s * b // tall: one block row per block column
	panelBytes := int64(8 * rows * b)
	rBlockBytes := int64(8 * b * b)
	fb, fr := float64(b), float64(rows)

	bld := p.builder("qr")
	colID := make([]task.ObjectID, s) // A_j, overwritten by Q_j in place
	for j := range colID {
		colID[j] = bld.Object(indexed("col", j), panelBytes)
	}
	rID := make(map[[2]int]task.ObjectID, s*(s+1)/2)
	for i := 0; i < s; i++ {
		for j := i; j < s; j++ {
			rID[[2]int{i, j}] = bld.Object(indexed("R", i, j), rBlockBytes)
		}
	}

	// Real buffers: column panels (rows×b each, row-major) and R blocks.
	var cols [][]float64
	var rblk map[[2]int][]float64
	var orig [][]float64
	if p.Kernels {
		rng := newRng(41)
		cols = make([][]float64, s)
		orig = make([][]float64, s)
		for j := range cols {
			c := make([]float64, rows*b)
			for k := range c {
				c[k] = rng.float() - 0.5
			}
			cols[j] = c
			orig[j] = append([]float64(nil), c...)
		}
		rblk = make(map[[2]int][]float64, len(rID))
		for k := range rID {
			rblk[k] = make([]float64, b*b)
		}
	}

	// proj: R = Qᵀ·A (b×b), then A -= Q·R.
	proj := func(q, a, r []float64) {
		for x := 0; x < b; x++ {
			for y := 0; y < b; y++ {
				var sum float64
				for k := 0; k < rows; k++ {
					sum += q[k*b+x] * a[k*b+y]
				}
				r[x*b+y] = sum
			}
		}
		for k := 0; k < rows; k++ {
			for y := 0; y < b; y++ {
				var sum float64
				for x := 0; x < b; x++ {
					sum += q[k*b+x] * r[x*b+y]
				}
				a[k*b+y] -= sum
			}
		}
	}
	// panel: in-place MGS of one panel, filling its diagonal R block.
	panel := func(a, r []float64) error {
		for x := 0; x < b; x++ {
			var norm float64
			for k := 0; k < rows; k++ {
				norm += a[k*b+x] * a[k*b+x]
			}
			norm = math.Sqrt(norm)
			if norm == 0 {
				return fmt.Errorf("qr: rank-deficient panel column %d", x)
			}
			r[x*b+x] = norm
			for k := 0; k < rows; k++ {
				a[k*b+x] /= norm
			}
			for y := x + 1; y < b; y++ {
				var dot float64
				for k := 0; k < rows; k++ {
					dot += a[k*b+x] * a[k*b+y]
				}
				r[x*b+y] = dot
				for k := 0; k < rows; k++ {
					a[k*b+y] -= dot * a[k*b+x]
				}
			}
		}
		return nil
	}

	var firstErr error
	stream := lines(panelBytes) * int64(b) / CacheBlock
	for j := 0; j < s; j++ {
		j := j
		for i := 0; i < j; i++ {
			i := i
			var run func()
			if p.Kernels {
				run = func() { proj(cols[i], cols[j], rblk[[2]int{i, j}]) }
			}
			bld.Submit("proj", cpuSec(4*fr*fb*fb), []task.Access{
				{Obj: colID[i], Mode: task.In, Loads: lines(panelBytes) + stream, MLP: 8},
				{Obj: colID[j], Mode: task.InOut, Loads: lines(panelBytes), Stores: lines(panelBytes), MLP: 8},
				{Obj: rID[[2]int{i, j}], Mode: task.Out, Stores: lines(rBlockBytes), MLP: 4},
			}, run)
		}
		var run func()
		if p.Kernels {
			run = func() {
				if err := panel(cols[j], rblk[[2]int{j, j}]); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		bld.Submit("panel", cpuSec(2*fr*fb*fb), []task.Access{
			{Obj: colID[j], Mode: task.InOut, Loads: lines(panelBytes), Stores: lines(panelBytes), MLP: 3},
			{Obj: rID[[2]int{j, j}], Mode: task.Out, Stores: lines(rBlockBytes), MLP: 2},
		}, run)
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			if firstErr != nil {
				return firstErr
			}
			// Orthonormality: Q_iᵀ Q_j ≈ I or 0, spot-checked.
			dot := func(i, j, x, y int) float64 {
				var sum float64
				for k := 0; k < rows; k++ {
					sum += cols[i][k*b+x] * cols[j][k*b+y]
				}
				return sum
			}
			for _, pair := range [][2]int{{0, 0}, {0, s - 1}, {s / 2, s - 1}, {s - 1, s - 1}} {
				i, j := pair[0], pair[1]
				want := 0.0
				if i == j {
					want = 1
				}
				if d := math.Abs(dot(i, j, 0, 0) - want); d > 1e-8 {
					return fmt.Errorf("qr: Q[%d]ᵀQ[%d] = %g off by %g", i, j, dot(i, j, 0, 0), d)
				}
			}
			// Reconstruction: A_j = sum_{i<=j} Q_i R[i][j], first column of
			// each panel spot-checked over all rows.
			for j := 0; j < s; j++ {
				for k := 0; k < rows; k += 7 {
					var sum float64
					for i := 0; i <= j; i++ {
						r := rblk[[2]int{i, j}]
						for x := 0; x < b; x++ {
							sum += cols[i][k*b+x] * r[x*b+0]
						}
					}
					d := math.Abs(sum - orig[j][k*b+0])
					if d > 1e-8*float64(rows) {
						return fmt.Errorf("qr: A[%d] row %d off by %g", j, k, d)
					}
				}
			}
			return nil
		}
	}
	return built
}
