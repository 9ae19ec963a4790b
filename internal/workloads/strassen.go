package workloads

import (
	"fmt"
	"strconv"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name: "strassen",
		Description: "Strassen matrix multiplication, two recursion levels: a recursive task " +
			"graph with short-lived temporaries",
		Build: buildStrassen,
		App:   true,
	})
}

// blockGrid is a matrix held as a grid of leaf-block objects, plus the
// real backing buffers when kernels are enabled.
type blockGrid struct {
	n    int // grid dimension (blocks per side)
	ids  []task.ObjectID
	data [][]float64
}

func (g *blockGrid) id(i, j int) task.ObjectID { return g.ids[i*g.n+j] }
func (g *blockGrid) buf(i, j int) []float64 {
	if g.data == nil {
		return nil
	}
	return g.data[i*g.n+j]
}

// quadrant returns the grid view of one quadrant (qi, qj in {0,1}).
func (g *blockGrid) quadrant(qi, qj int) *blockGrid {
	h := g.n / 2
	out := &blockGrid{n: h, ids: make([]task.ObjectID, h*h)}
	if g.data != nil {
		out.data = make([][]float64, h*h)
	}
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			out.ids[i*h+j] = g.id(qi*h+i, qj*h+j)
			if g.data != nil {
				out.data[i*h+j] = g.buf(qi*h+i, qj*h+j)
			}
		}
	}
	return out
}

// strassenBuilder carries the shared construction state.
type strassenBuilder struct {
	bld     *task.Builder
	b       int   // leaf block dimension
	bytes   int64 // leaf block bytes
	kernels bool
	nTemp   int
}

// newGrid allocates a fresh temporary matrix of n×n leaf blocks.
func (sb *strassenBuilder) newGrid(n int) *blockGrid {
	g := &blockGrid{n: n, ids: make([]task.ObjectID, n*n)}
	if sb.kernels {
		g.data = make([][]float64, n*n)
	}
	for i := range g.ids {
		sb.nTemp++
		g.ids[i] = sb.bld.Object("T"+strconv.Itoa(sb.nTemp), sb.bytes)
		if sb.kernels {
			g.data[i] = make([]float64, sb.b*sb.b)
		}
	}
	return g
}

// addGrids submits per-block tasks computing dst = x + sign*y.
func (sb *strassenBuilder) addGrids(dst, x, y *blockGrid, sign float64) {
	T := sb.bytes
	for i := 0; i < dst.n; i++ {
		for j := 0; j < dst.n; j++ {
			i, j := i, j
			var run func()
			if sb.kernels {
				d, a, b := dst.buf(i, j), x.buf(i, j), y.buf(i, j)
				run = func() {
					for k := range d {
						d[k] = a[k] + sign*b[k]
					}
				}
			}
			sb.bld.Submit("madd", cpuSec(float64(sb.b*sb.b)), []task.Access{
				{Obj: x.id(i, j), Mode: task.In, Loads: lines(T), MLP: 10},
				{Obj: y.id(i, j), Mode: task.In, Loads: lines(T), MLP: 10},
				{Obj: dst.id(i, j), Mode: task.Out, Stores: lines(T), MLP: 10},
			}, run)
		}
	}
}

// accumulate submits per-block tasks computing dst += sign*(x) where x
// may be nil (no-op) — used to combine the seven products into C.
func (sb *strassenBuilder) accumulate(dst, x *blockGrid, sign float64) {
	T := sb.bytes
	for i := 0; i < dst.n; i++ {
		for j := 0; j < dst.n; j++ {
			i, j := i, j
			var run func()
			if sb.kernels {
				d, a := dst.buf(i, j), x.buf(i, j)
				run = func() {
					for k := range d {
						d[k] += sign * a[k]
					}
				}
			}
			sb.bld.Submit("macc", cpuSec(float64(sb.b*sb.b)), []task.Access{
				{Obj: x.id(i, j), Mode: task.In, Loads: lines(T), MLP: 10},
				{Obj: dst.id(i, j), Mode: task.InOut, Loads: lines(T), Stores: lines(T), MLP: 10},
			}, run)
		}
	}
}

// multiply builds C = A·B: Strassen recursion while depth > 0 and the
// grids still split, classic blocked multiplication at the leaves.
func (sb *strassenBuilder) multiply(c, a, b *blockGrid, depth int) {
	if depth == 0 || a.n == 1 {
		sb.blockedMultiply(c, a, b)
		return
	}
	a11, a12 := a.quadrant(0, 0), a.quadrant(0, 1)
	a21, a22 := a.quadrant(1, 0), a.quadrant(1, 1)
	b11, b12 := b.quadrant(0, 0), b.quadrant(0, 1)
	b21, b22 := b.quadrant(1, 0), b.quadrant(1, 1)
	c11, c12 := c.quadrant(0, 0), c.quadrant(0, 1)
	c21, c22 := c.quadrant(1, 0), c.quadrant(1, 1)
	h := a.n / 2

	m := make([]*blockGrid, 7)
	for i := range m {
		m[i] = sb.newGrid(h)
	}
	t1, t2 := sb.newGrid(h), sb.newGrid(h)

	// M1 = (A11+A22)(B11+B22)
	sb.addGrids(t1, a11, a22, 1)
	sb.addGrids(t2, b11, b22, 1)
	sb.multiply(m[0], t1, t2, depth-1)
	// M2 = (A21+A22)B11
	t3 := sb.newGrid(h)
	sb.addGrids(t3, a21, a22, 1)
	sb.multiply(m[1], t3, b11, depth-1)
	// M3 = A11(B12-B22)
	t4 := sb.newGrid(h)
	sb.addGrids(t4, b12, b22, -1)
	sb.multiply(m[2], a11, t4, depth-1)
	// M4 = A22(B21-B11)
	t5 := sb.newGrid(h)
	sb.addGrids(t5, b21, b11, -1)
	sb.multiply(m[3], a22, t5, depth-1)
	// M5 = (A11+A12)B22
	t6 := sb.newGrid(h)
	sb.addGrids(t6, a11, a12, 1)
	sb.multiply(m[4], t6, b22, depth-1)
	// M6 = (A21-A11)(B11+B12)
	t7, t8 := sb.newGrid(h), sb.newGrid(h)
	sb.addGrids(t7, a21, a11, -1)
	sb.addGrids(t8, b11, b12, 1)
	sb.multiply(m[5], t7, t8, depth-1)
	// M7 = (A12-A22)(B21+B22)
	t9, t10 := sb.newGrid(h), sb.newGrid(h)
	sb.addGrids(t9, a12, a22, -1)
	sb.addGrids(t10, b21, b22, 1)
	sb.multiply(m[6], t9, t10, depth-1)

	// C11 = M1+M4-M5+M7; C12 = M3+M5; C21 = M2+M4; C22 = M1-M2+M3+M6
	sb.addGrids(c11, m[0], m[3], 1)
	sb.accumulate(c11, m[4], -1)
	sb.accumulate(c11, m[6], 1)
	sb.addGrids(c12, m[2], m[4], 1)
	sb.addGrids(c21, m[1], m[3], 1)
	sb.addGrids(c22, m[0], m[1], -1)
	sb.accumulate(c22, m[2], 1)
	sb.accumulate(c22, m[5], 1)
}

// blockedMultiply is the classic O(n³) tiled product at the leaves:
// C(i,j) = sum_k A(i,k)·B(k,j), one accumulating gemm task per term.
func (sb *strassenBuilder) blockedMultiply(c, a, b *blockGrid) {
	fb := float64(sb.b)
	acc := make([]task.Access, 0, 3)
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			i, j := i, j
			// Zero C(i,j) first (temporaries start undefined).
			var zero func()
			if sb.kernels {
				d := c.buf(i, j)
				zero = func() {
					for k := range d {
						d[k] = 0
					}
				}
			}
			sb.bld.Submit("mzero", cpuSec(fb*fb), []task.Access{
				{Obj: c.id(i, j), Mode: task.Out, Stores: lines(sb.bytes), MLP: 12},
			}, zero)
			for k := 0; k < a.n; k++ {
				k := k
				var run func()
				if sb.kernels {
					ab, bb, cb := a.buf(i, k), b.buf(k, j), c.buf(i, j)
					run = func() { gemmAccum(ab, bb, cb, sb.b) }
				}
				sb.bld.Submit("gemm", cpuSec(2*fb*fb*fb),
					gemmAccess(acc, sb.b, a.id(i, k), b.id(k, j), c.id(i, j)), run)
			}
		}
	}
}

// gemmAccum computes C += A·B.
func gemmAccum(a, b, c []float64, n int) {
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
}

// buildStrassen multiplies two (4·b)×(4·b) matrices with Scale recursion
// levels (default 2): a recursive task graph whose temporaries live only
// between their producing adds and consuming multiplies — short object
// lifetimes that reward placement following the recursion front. Leaf
// blocks are 512² (2 MB) for simulation, 32² with kernels.
func buildStrassen(p Params) Built {
	depth := defScale(p.Scale, 2)
	if depth > 2 {
		depth = 2
	}
	b := p.tileDim(512, 32)
	grid := 1 << depth // blocks per side

	bld := p.builder("strassen")
	sb := &strassenBuilder{bld: bld, b: b, bytes: tileBytes(b), kernels: p.Kernels}

	mk := func(name string, fill bool, rng *rng) *blockGrid {
		g := &blockGrid{n: grid, ids: make([]task.ObjectID, grid*grid)}
		if p.Kernels {
			g.data = make([][]float64, grid*grid)
		}
		for i := range g.ids {
			g.ids[i] = bld.Object(indexed(name, i), sb.bytes)
			if p.Kernels {
				buf := make([]float64, b*b)
				if fill {
					for k := range buf {
						buf[k] = rng.float() - 0.5
					}
				}
				g.data[i] = buf
			}
		}
		return g
	}
	rng := newRng(31)
	A := mk("A", true, rng)
	B := mk("B", true, rng)
	C := mk("C", false, rng)

	sb.multiply(C, A, B, depth)

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			// Compare a full row band of C against the direct product.
			n := grid * b
			at := func(g *blockGrid, i, j int) float64 {
				return g.buf(i/b, j/b)[(i%b)*b+(j%b)]
			}
			for i := 0; i < b; i++ { // first block-row suffices
				for j := 0; j < n; j++ {
					var want float64
					for k := 0; k < n; k++ {
						want += at(A, i, k) * at(B, k, j)
					}
					got := at(C, i, j)
					d := got - want
					if d < 0 {
						d = -d
					}
					if d > 1e-9*float64(n) {
						return fmt.Errorf("strassen: C[%d][%d] = %g, want %g", i, j, got, want)
					}
				}
			}
			return nil
		}
	}
	return built
}
