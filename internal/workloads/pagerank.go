package workloads

import (
	"fmt"
	"math"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name: "pagerank",
		Description: "PageRank pull iterations over a synthetic power-law graph in CSR: " +
			"streamed edges, latency-bound rank gathers",
		Build:    buildPageRank,
		App:      true,
		MaxScale: 32768,
	})
}

// buildPageRank builds Scale iterations (default 12) of pull-style
// PageRank on a synthetic graph of 2^22 vertices with average degree 8
// (2^12 vertices with kernels). The edge structure is one large,
// read-only, chunkable CSR object streamed every iteration; the rank
// vectors are banded and gathered irregularly (low memory-level
// parallelism) — the graph-analytics shape whose placement the ATMem
// line of work targets, with both a bandwidth-bound and a latency-bound
// facet in one workload.
func buildPageRank(p Params) Built {
	iters := defScale(p.Scale, 12)
	logV := 22
	if p.Kernels {
		logV = 12
	}
	nv := 1 << logV
	const avgDeg = 8
	const bands = 8
	perBand := nv / bands

	// CSR sizes: 4-byte column per edge plus the row-pointer array.
	edgeBytes := int64(4*nv*avgDeg) + int64(4*(nv+1))
	rankBandBytes := int64(8 * perBand)

	bld := p.builder("pagerank")
	edges := bld.Object("edges", edgeBytes)
	mk := func(name string) []task.ObjectID {
		ids := make([]task.ObjectID, bands)
		for i := range ids {
			ids[i] = bld.Object(indexed(name, i), rankBandBytes)
		}
		return ids
	}
	rank := [2][]task.ObjectID{mk("R0"), mk("R1")}
	degID := mk("deg")

	// Real state: a deterministic random multigraph in CSR.
	var (
		rowptr []int32
		col    []int32
		rv     [2][]float64
		deg    []float64
	)
	if p.Kernels {
		rng := newRng(23)
		rowptr = make([]int32, nv+1)
		col = make([]int32, 0, nv*avgDeg)
		deg = make([]float64, nv)
		for v := 0; v < nv; v++ {
			for e := 0; e < avgDeg; e++ {
				// Power-law-ish bias: half the edges land in the first
				// eighth of the vertex space.
				var u int
				if rng.next()%2 == 0 {
					u = int(rng.next() % uint64(nv/8))
				} else {
					u = int(rng.next() % uint64(nv))
				}
				col = append(col, int32(u))
				deg[u]++
			}
			rowptr[v+1] = int32(len(col))
		}
		for u := range deg {
			if deg[u] == 0 {
				deg[u] = 1
			}
		}
		rv[0] = make([]float64, nv)
		rv[1] = make([]float64, nv)
		for i := range rv[0] {
			rv[0][i] = 1.0 / float64(nv)
		}
	}

	const damping = 0.85
	step := func(src, dst []float64, band int) {
		lo, hi := band*perBand, (band+1)*perBand
		base := (1 - damping) / float64(nv)
		for v := lo; v < hi; v++ {
			var s float64
			for e := rowptr[v]; e < rowptr[v+1]; e++ {
				u := col[e]
				s += src[u] / deg[u]
			}
			dst[v] = base + damping*s
		}
	}

	edgeBandLines := lines(edgeBytes) / bands
	gatherLoads := int64(perBand * avgDeg) // one line touched per edge endpoint
	for it := 0; it < iters; it++ {
		src, dst := it%2, 1-it%2
		for b := 0; b < bands; b++ {
			b := b
			acc := append(make([]task.Access, 0, 2+2*bands),
				task.Access{Obj: edges, Mode: task.In, Loads: edgeBandLines, MLP: 4},
				task.Access{Obj: rank[dst][b], Mode: task.Out, Stores: lines(rankBandBytes), MLP: 6})
			// The gather touches every source band (power-law graphs have
			// no locality); dependent, irregular accesses.
			for sb := 0; sb < bands; sb++ {
				acc = append(acc, task.Access{
					Obj: rank[src][sb], Mode: task.In, Loads: gatherLoads / bands, MLP: 2,
				})
				acc = append(acc, task.Access{
					Obj: degID[sb], Mode: task.In, Loads: gatherLoads / bands / 4, MLP: 2,
				})
			}
			var run func()
			if p.Kernels {
				s, d := rv[src], rv[dst]
				run = func() { step(s, d, b) }
			}
			bld.Submit("rankstep", cpuSec(3*float64(perBand*avgDeg)), acc, run)
		}
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			got := rv[iters%2]
			// Replay serially from the same initial state.
			a := make([]float64, nv)
			b := make([]float64, nv)
			for i := range a {
				a[i] = 1.0 / float64(nv)
			}
			ref := [2][]float64{a, b}
			for it := 0; it < iters; it++ {
				for band := 0; band < bands; band++ {
					srcv, dstv := ref[it%2], ref[1-it%2]
					lo, hi := band*perBand, (band+1)*perBand
					base := (1 - damping) / float64(nv)
					for v := lo; v < hi; v++ {
						var s float64
						for e := rowptr[v]; e < rowptr[v+1]; e++ {
							u := col[e]
							s += srcv[u] / deg[u]
						}
						dstv[v] = base + damping*s
					}
				}
			}
			want := ref[iters%2]
			if d := maxAbsDiff(got, want); d > 1e-12 {
				return fmt.Errorf("pagerank: parallel result differs from serial by %g", d)
			}
			// Rank mass stays near 1 (dangling mass leaks are bounded).
			var sum float64
			for _, v := range got {
				sum += v
			}
			if math.Abs(sum-1) > 0.5 {
				return fmt.Errorf("pagerank: rank mass %g unreasonable", sum)
			}
			return nil
		}
	}
	return built
}
