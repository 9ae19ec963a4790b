package workloads

import (
	"fmt"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name:        "stream",
		Description: "STREAM triad a=b+s*c over blocks: the bandwidth calibration microbenchmark",
		Build:       buildStream,
		App:         false,
		MaxScale:    16384,
	})
	register(Spec{
		Name:        "pchase",
		Description: "Pointer chase through a permutation cycle: the latency calibration microbenchmark",
		Build:       buildPChase,
		App:         false,
		MaxScale:    262144,
	})
}

// buildStream builds Scale iterations (default 8) of the STREAM triad
// a = b + s·c over three arrays of 2^24 float64 (128 MB each for
// simulation, 2^18 with kernels), 16 block tasks per iteration. Maximum
// memory-level parallelism, zero reuse: the pure bandwidth-bound
// workload used to calibrate CF_bw and to measure peak bandwidth.
func buildStream(p Params) Built {
	iters := defScale(p.Scale, 8)
	logN := 24
	if p.Kernels {
		logN = 18
	}
	n := 1 << logN
	const blocks = 16
	blockLen := n / blocks
	blockBytes := int64(8 * blockLen)

	bld := p.builder("stream")
	mk := func(name string) []task.ObjectID {
		ids := make([]task.ObjectID, blocks)
		for i := range ids {
			ids[i] = bld.Object(indexed(name, i), blockBytes)
		}
		return ids
	}
	aID, bID, cID := mk("a"), mk("b"), mk("c")

	var av, bv, cv []float64
	if p.Kernels {
		av = make([]float64, n)
		bv = make([]float64, n)
		cv = make([]float64, n)
		for i := range bv {
			bv[i] = float64(i % 1024)
			cv[i] = 2
		}
	}
	const scalar = 3.0

	for it := 0; it < iters; it++ {
		for b := 0; b < blocks; b++ {
			b := b
			var run func()
			if p.Kernels {
				run = func() {
					lo, hi := b*blockLen, (b+1)*blockLen
					for i := lo; i < hi; i++ {
						av[i] = bv[i] + scalar*cv[i]
					}
				}
			}
			bld.Submit("triad", cpuSec(2*float64(blockLen)), []task.Access{
				{Obj: bID[b], Mode: task.In, Loads: lines(blockBytes), MLP: 16},
				{Obj: cID[b], Mode: task.In, Loads: lines(blockBytes), MLP: 16},
				{Obj: aID[b], Mode: task.Out, Stores: lines(blockBytes), MLP: 16},
			}, run)
		}
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			for i, v := range av {
				want := bv[i] + scalar*cv[i]
				if v != want {
					return fmt.Errorf("stream: a[%d] = %g, want %g", i, v, want)
				}
			}
			return nil
		}
	}
	return built
}

// buildPChase builds a serial chain of Scale tasks (default 64), each
// chasing 2^16 dependent pointers through a permutation cycle over a
// 64 MB node pool (2^16 nodes of one cache line each with kernels).
// MLP = 1, negligible bandwidth: the pure latency-bound workload used to
// calibrate CF_lat.
func buildPChase(p Params) Built {
	hops := defScale(p.Scale, 64)
	nodes := 1 << 20 // one cache line each: 64 MB
	if p.Kernels {
		nodes = 1 << 16
	}
	chasesPerTask := int64(1 << 16)

	bld := p.builder("pchase")
	pool := bld.ObjectOpt("nodes", int64(nodes*64), false)
	cursor := bld.ObjectOpt("cursor", 64, false)

	var next []int32
	var pos int32
	if p.Kernels {
		// Sattolo's algorithm: a single cycle over all nodes.
		next = make([]int32, nodes)
		for i := range next {
			next[i] = int32(i)
		}
		rng := newRng(13)
		for i := nodes - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i))
			next[i], next[j] = next[j], next[i]
		}
	}

	for h := 0; h < hops; h++ {
		var run func()
		if p.Kernels {
			run = func() {
				for c := int64(0); c < chasesPerTask; c++ {
					pos = next[pos]
				}
			}
		}
		bld.Submit("chase", cpuSec(float64(chasesPerTask)), []task.Access{
			{Obj: pool, Mode: task.In, Loads: chasesPerTask, MLP: 1},
			{Obj: cursor, Mode: task.InOut, Loads: 1, Stores: 1, MLP: 1},
		}, run)
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			// Sattolo's algorithm yields one cycle of length `nodes`, so
			// after total steps from node 0 the cursor must sit at the
			// position total mod nodes steps along the cycle.
			total := int64(hops) * chasesPerTask
			want := walk(next, 0, total%int64(nodes))
			if pos != want {
				return fmt.Errorf("pchase: cursor at %d, want %d", pos, want)
			}
			return nil
		}
	}
	return built
}

// walk follows the permutation n steps from start.
func walk(next []int32, start int32, n int64) int32 {
	p := start
	for i := int64(0); i < n; i++ {
		p = next[p]
	}
	return p
}
