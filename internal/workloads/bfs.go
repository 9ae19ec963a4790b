package workloads

import (
	"fmt"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name: "bfs",
		Description: "Level-synchronized breadth-first search over a synthetic small-world graph: " +
			"per-level frontier work that swells then drains",
		Build:    buildBFS,
		App:      true,
		MaxScale: 29127,
	})
}

// buildBFS builds a level-synchronized BFS from vertex 0 over a
// synthetic small-world graph of 2^22 vertices with average degree 8
// (2^12 with kernels), run for Scale levels (default 10). The CSR edge
// structure is one large read-only chunkable object; per-band frontier
// and distance arrays are the hot state. The per-level traffic follows
// the frontier's swell-and-drain: the levels near the swell stream most
// of the edge object, early and late levels touch almost nothing — a
// working set that breathes, complementing wave's monotone sweep.
func buildBFS(p Params) Built {
	levels := defScale(p.Scale, 10)
	logV := 22
	if p.Kernels {
		logV = 12
	}
	nv := 1 << logV
	const avgDeg = 8
	const bands = 8
	perBand := nv / bands

	edgeBytes := int64(4*nv*avgDeg) + int64(4*(nv+1))
	distBandBytes := int64(4 * perBand)
	frontBandBytes := int64(perBand / 8) // bitmap

	bld := p.builder("bfs")
	edges := bld.Object("edges", edgeBytes)
	mk := func(name string, bytes int64) []task.ObjectID {
		ids := make([]task.ObjectID, bands)
		for i := range ids {
			ids[i] = bld.Object(indexed(name, i), bytes)
		}
		return ids
	}
	dist := mk("dist", distBandBytes)
	front := [2][]task.ObjectID{mk("F0", frontBandBytes), mk("F1", frontBandBytes)}

	// Real graph state: ring lattice plus random shortcuts (small world),
	// so BFS frontiers genuinely swell geometrically then drain.
	var (
		rowptr []int32
		col    []int32
		dists  []int32
		cur    []bool
		next   []bool
	)
	if p.Kernels {
		rng := newRng(37)
		rowptr = make([]int32, nv+1)
		col = make([]int32, 0, nv*avgDeg)
		for v := 0; v < nv; v++ {
			for e := 0; e < avgDeg-2; e++ {
				col = append(col, int32(rng.next()%uint64(nv)))
			}
			col = append(col, int32((v+1)%nv), int32((v+nv-1)%nv))
			rowptr[v+1] = int32(len(col))
		}
		dists = make([]int32, nv)
		for i := range dists {
			dists[i] = -1
		}
		dists[0] = 0
		cur = make([]bool, nv)
		next = make([]bool, nv)
		cur[0] = true
	}

	// Analytic frontier model for the traffic: geometric swell capped by
	// the vertex count, then drain — deterministic and documented.
	frontierFrac := func(level int) float64 {
		f := 1.0 / float64(nv)
		for l := 0; l < level; l++ {
			f *= float64(avgDeg - 1)
			if f > 0.35 {
				f = 0.35
			}
		}
		// Drain once most vertices are visited.
		if level >= levels-2 {
			f /= 16
		}
		return f
	}

	// Owner-computes expansion: task b scans the whole frontier but only
	// claims vertices in its own destination band, so tasks within a
	// level are race-free and fully parallel.
	expand := func(band int) {
		lo, hi := int32(band*perBand), int32((band+1)*perBand)
		for v := 0; v < nv; v++ {
			if !cur[v] {
				continue
			}
			for e := rowptr[v]; e < rowptr[v+1]; e++ {
				u := col[e]
				if u >= lo && u < hi && dists[u] < 0 {
					dists[u] = dists[v] + 1
					next[u] = true
				}
			}
		}
	}

	for level := 0; level < levels; level++ {
		frac := frontierFrac(level)
		src, dst := level%2, 1-level%2
		edgeLines := int64(frac * float64(lines(edgeBytes)))
		if edgeLines < 1 {
			edgeLines = 1
		}
		for b := 0; b < bands; b++ {
			b := b
			// Owner-computes: every task reads the full frontier and the
			// frontier's edges, and claims only its own destination band.
			acc := append(make([]task.Access, 0, 3+bands),
				task.Access{Obj: edges, Mode: task.In, Loads: edgeLines, MLP: 3},
				task.Access{Obj: dist[b], Mode: task.InOut,
					Loads:  int64(frac*float64(nv*avgDeg))/int64(bands) + 1,
					Stores: int64(frac*float64(perBand)) + 1, MLP: 2},
				task.Access{Obj: front[dst][b], Mode: task.InOut,
					Loads: 1, Stores: int64(frac*float64(perBand))/8 + 1, MLP: 2})
			for sb := 0; sb < bands; sb++ {
				acc = append(acc, task.Access{
					Obj: front[src][sb], Mode: task.In,
					Loads: lines(frontBandBytes), MLP: 8,
				})
			}
			var run func()
			if p.Kernels {
				run = func() { expand(b) }
			}
			bld.Submit("expand", cpuSec(frac*float64(nv*avgDeg)*4+float64(nv)/8), acc, run)
		}
		// Level barrier: swap frontiers (clear the consumed one).
		swapAcc := make([]task.Access, 0, 2*bands)
		for b := 0; b < bands; b++ {
			swapAcc = append(swapAcc,
				task.Access{Obj: front[src][b], Mode: task.Out, Stores: lines(frontBandBytes), MLP: 12},
				task.Access{Obj: front[dst][b], Mode: task.In, Loads: lines(frontBandBytes), MLP: 12})
		}
		var run func()
		if p.Kernels {
			run = func() {
				copy(cur, next)
				for i := range next {
					next[i] = false
				}
			}
		}
		bld.Submit("swap", cpuSec(float64(nv)/16), swapAcc, run)
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			// Replay serially with the same level cap and compare.
			rd := make([]int32, nv)
			for i := range rd {
				rd[i] = -1
			}
			rd[0] = 0
			c := make([]bool, nv)
			n := make([]bool, nv)
			c[0] = true
			for level := 0; level < levels; level++ {
				for v := 0; v < nv; v++ {
					if !c[v] {
						continue
					}
					for e := rowptr[v]; e < rowptr[v+1]; e++ {
						u := col[e]
						if rd[u] < 0 {
							rd[u] = rd[v] + 1
							n[u] = true
						}
					}
				}
				copy(c, n)
				for i := range n {
					n[i] = false
				}
			}
			visited := 0
			for i := range dists {
				if dists[i] != rd[i] {
					return fmt.Errorf("bfs: dist[%d] = %d, want %d", i, dists[i], rd[i])
				}
				if dists[i] >= 0 {
					visited++
				}
			}
			if visited < nv/2 {
				return fmt.Errorf("bfs: only %d of %d vertices reached", visited, nv)
			}
			return nil
		}
	}
	return built
}
