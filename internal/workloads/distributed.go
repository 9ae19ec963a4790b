package workloads

import (
	"fmt"
	"strconv"

	"repro/internal/task"
)

// Distributed describes a strong-scaling decomposition of a workload: the
// global problem stays fixed while ranks each build the task graph of
// their partition, exchanging boundary data every iteration. This is the
// shape of the paper's multi-node experiments (one memory system per
// rank, MPI halo exchanges between iterations).
type Distributed struct {
	Name string
	// BuildRank returns one rank's local graph in a `ranks`-way
	// decomposition of the global problem.
	BuildRank func(rank, ranks int, p Params) Built
	// CommBytesPerIter is the per-rank boundary exchange volume.
	CommBytesPerIter func(ranks int, p Params) int64
	// Iterations is the number of communication rounds.
	Iterations func(p Params) int
}

// DistributedByName returns the strong-scaling decomposition of a
// workload; heat (1D band decomposition with halos) and cg (row-block
// decomposition with halo and allreduce) are supported.
func DistributedByName(name string) (Distributed, error) {
	switch name {
	case "heat":
		return Distributed{
			Name:             "heat",
			BuildRank:        buildHeatRank,
			CommBytesPerIter: heatCommBytes,
			Iterations:       func(p Params) int { return defScale(p.Scale, 12) },
		}, nil
	case "cg":
		return Distributed{
			Name:             "cg",
			BuildRank:        buildCGRank,
			CommBytesPerIter: cgCommBytes,
			Iterations:       func(p Params) int { return defScale(p.Scale, 16) },
		}, nil
	}
	return Distributed{}, fmt.Errorf("workloads: no distributed decomposition for %q", name)
}

// Global problem dimensions of the distributed instances.
const (
	distHeatN  = 4096 // global grid edge
	distCGGrid = 1280 // global Laplacian grid edge
)

// buildHeatRank builds one rank's share of the global heat problem:
// rows [rank·n/ranks, (rank+1)·n/ranks) of a distHeatN² grid, as a local
// band-decomposed Jacobi with the same ping-pong structure as the
// shared-memory workload. Halo rows arrive by communication, accounted
// by the cluster simulator, so the local graph only carries local bands.
func buildHeatRank(rank, ranks int, p Params) Built {
	iters := defScale(p.Scale, 12)
	n := distHeatN
	localRows := n / ranks
	bands := 16 / ranks
	if bands < 2 {
		bands = 2
	}
	rowsPer := localRows / bands
	if rowsPer < 1 {
		rowsPer = 1
	}
	bandBytes := int64(8 * rowsPer * n)
	haloBytes := int64(8 * n)

	bld := p.builder("heat@" + strconv.Itoa(rank) + "/" + strconv.Itoa(ranks))
	obj := [2][]task.ObjectID{}
	for v := 0; v < 2; v++ {
		obj[v] = make([]task.ObjectID, bands)
		u := "U" + strconv.Itoa(v)
		for r := 0; r < bands; r++ {
			obj[v][r] = bld.Object(indexed(u, r), bandBytes)
		}
	}
	for it := 0; it < iters; it++ {
		src, dst := it%2, 1-it%2
		for r := 0; r < bands; r++ {
			acc := append(make([]task.Access, 0, 4),
				task.Access{Obj: obj[src][r], Mode: task.In, Loads: lines(bandBytes), MLP: 6},
				task.Access{Obj: obj[dst][r], Mode: task.Out, Stores: lines(bandBytes), MLP: 6})
			if r > 0 {
				acc = append(acc, task.Access{Obj: obj[src][r-1], Mode: task.In, Loads: lines(haloBytes), MLP: 6})
			}
			if r < bands-1 {
				acc = append(acc, task.Access{Obj: obj[src][r+1], Mode: task.In, Loads: lines(haloBytes), MLP: 6})
			}
			bld.Submit("jacobi", cpuSec(4*float64(rowsPer*n)), acc, nil)
		}
	}
	return Built{Graph: bld.Build()}
}

// heatCommBytes: two halo rows exchanged with each neighbour.
func heatCommBytes(ranks int, p Params) int64 {
	if ranks <= 1 {
		return 0
	}
	return 2 * 8 * distHeatN
}

// buildCGRank builds one rank's share of the global CG problem: a block
// of n/ranks matrix rows and the matching vector segments, with the same
// per-iteration task structure as the shared-memory workload. Dot-product
// partial sums combine by allreduce, accounted as communication.
func buildCGRank(rank, ranks int, p Params) Built {
	iters := defScale(p.Scale, 16)
	g := distCGGrid
	n := g * g / ranks // local rows
	bands := 8 / ranks
	if bands < 2 {
		bands = 2
	}
	rowsPer := n / bands

	nnz := int64(5 * n)
	matBytes := nnz*12 + int64(4*n)
	matBandBytes := matBytes / int64(bands)
	vecBandBytes := int64(8 * rowsPer)

	bld := p.builder("cg@" + strconv.Itoa(rank) + "/" + strconv.Itoa(ranks))
	matID := bld.Object("A", matBytes)
	vec := func(name string) []task.ObjectID {
		ids := make([]task.ObjectID, bands)
		for r := range ids {
			ids[r] = bld.Object(indexed(name, r), vecBandBytes)
		}
		return ids
	}
	xID, rID, pID, qID := vec("x"), vec("r"), vec("p"), vec("q")
	rhoID := bld.ObjectOpt("rho", 64, false)
	pqID := bld.ObjectOpt("pq", 64, false)

	for it := 0; it < iters; it++ {
		for band := 0; band < bands; band++ {
			acc := []task.Access{
				{Obj: matID, Mode: task.In, Loads: lines(matBandBytes), MLP: 3},
				{Obj: pID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 2},
				{Obj: qID[band], Mode: task.Out, Stores: lines(vecBandBytes), MLP: 6},
			}
			bld.Submit("spmv", cpuSec(2*5*float64(rowsPer)), acc, nil)
		}
		for band := 0; band < bands; band++ {
			bld.Submit("dot_pq", cpuSec(2*float64(rowsPer)), []task.Access{
				{Obj: pID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: qID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: pqID, Mode: task.InOut, Loads: 1, Stores: 1, MLP: 1},
			}, nil)
		}
		for band := 0; band < bands; band++ {
			bld.Submit("axpy", cpuSec(4*float64(rowsPer)), []task.Access{
				{Obj: pqID, Mode: task.In, Loads: 1, MLP: 1},
				{Obj: rhoID, Mode: task.In, Loads: 1, MLP: 1},
				{Obj: pID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: qID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: xID[band], Mode: task.InOut, Loads: lines(vecBandBytes), Stores: lines(vecBandBytes), MLP: 6},
				{Obj: rID[band], Mode: task.InOut, Loads: lines(vecBandBytes), Stores: lines(vecBandBytes), MLP: 6},
			}, nil)
		}
		for band := 0; band < bands; band++ {
			bld.Submit("dot_rr", cpuSec(2*float64(rowsPer)), []task.Access{
				{Obj: rID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: rhoID, Mode: task.InOut, Loads: 1, Stores: 1, MLP: 1},
			}, nil)
		}
		for band := 0; band < bands; band++ {
			bld.Submit("update_p", cpuSec(2*float64(rowsPer)), []task.Access{
				{Obj: rhoID, Mode: task.In, Loads: 1, MLP: 1},
				{Obj: pqID, Mode: task.In, Loads: 1, MLP: 1},
				{Obj: rID[band], Mode: task.In, Loads: lines(vecBandBytes), MLP: 6},
				{Obj: pID[band], Mode: task.InOut, Loads: lines(vecBandBytes), Stores: lines(vecBandBytes), MLP: 6},
			}, nil)
		}
	}
	return Built{Graph: bld.Build()}
}

// cgCommBytes: halo exchange of boundary p rows plus two allreduces.
func cgCommBytes(ranks int, p Params) int64 {
	if ranks <= 1 {
		return 0
	}
	halo := int64(2 * 8 * distCGGrid)
	allreduce := int64(16 * log2int(ranks))
	return halo + 2*allreduce
}

func log2int(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
