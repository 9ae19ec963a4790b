package workloads

import (
	"fmt"
	"sort"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name:        "sort",
		Description: "Parallel mergesort: block sorts then a merge tree, ping-pong buffered",
		Build:       buildSort,
		App:         true,
	})
}

// buildSort builds a parallel mergesort of 2^Scale float64 keys
// (default 2^24, 128 MB) over 16 blocks: 16 leaf sort tasks, then a
// binary merge tree ping-ponging between the data and a scratch buffer.
// Merge levels stream entire regions — pure bandwidth-bound work whose
// hot set halves in count but doubles in size up the tree.
func buildSort(p Params) Built {
	logN := defScale(p.Scale, 24)
	if p.Kernels && p.Scale <= 0 {
		logN = 14
	}
	n := 1 << logN
	const blocks = 16
	blockLen := n / blocks
	blockBytes := int64(8 * blockLen)

	bld := p.builder("sort")
	aID := make([]task.ObjectID, blocks)
	bID := make([]task.ObjectID, blocks)
	for i := 0; i < blocks; i++ {
		aID[i] = bld.Object(indexed("a", i), blockBytes)
		bID[i] = bld.Object(indexed("buf", i), blockBytes)
	}
	bufs := [2][]task.ObjectID{aID, bID}

	var data, scratch []float64
	var checksum float64
	if p.Kernels {
		rng := newRng(9)
		data = make([]float64, n)
		scratch = make([]float64, n)
		for i := range data {
			data[i] = rng.float()
			checksum += data[i]
		}
	}
	arr := [2][]float64{data, scratch}

	// Leaf sorts on the primary buffer.
	for b := 0; b < blocks; b++ {
		b := b
		var run func()
		if p.Kernels {
			run = func() {
				s := data[b*blockLen : (b+1)*blockLen]
				sort.Float64s(s)
			}
		}
		// Comparison sort: ~log(blockLen) streaming passes' worth of
		// traffic through the cache hierarchy.
		passes := int64(logN - 4)
		if passes < 1 {
			passes = 1
		}
		bld.Submit("blocksort", cpuSec(float64(blockLen)*float64(passes)*4), []task.Access{
			{Obj: aID[b], Mode: task.InOut,
				Loads: lines(blockBytes) * passes / 2, Stores: lines(blockBytes) * passes / 2, MLP: 3},
		}, run)
	}

	// Merge tree: level l merges runs of 2^l blocks from src into dst.
	levels := 0
	for 1<<levels < blocks {
		levels++
	}
	for l := 0; l < levels; l++ {
		src, dst := l%2, 1-l%2
		runBlocks := 1 << l
		for start := 0; start < blocks; start += 2 * runBlocks {
			start := start
			acc := make([]task.Access, 0, 2*blocks) // 4·runBlocks at most
			for b := start; b < start+2*runBlocks; b++ {
				acc = append(acc,
					task.Access{Obj: bufs[src][b], Mode: task.In, Loads: lines(blockBytes), MLP: 6},
					task.Access{Obj: bufs[dst][b], Mode: task.Out, Stores: lines(blockBytes), MLP: 8},
				)
			}
			var run func()
			if p.Kernels {
				run = func() {
					lo := start * blockLen
					mid := lo + runBlocks*blockLen
					hi := mid + runBlocks*blockLen
					mergeRuns(arr[src], arr[dst], lo, mid, hi)
				}
			}
			bld.Submit("merge", cpuSec(float64(2*runBlocks*blockLen)*3), acc, run)
		}
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		final := levels % 2
		built.Check = func() error {
			out := arr[final]
			var sum float64
			for i := range out {
				sum += out[i]
				if i > 0 && out[i] < out[i-1] {
					return fmt.Errorf("sort: out of order at %d", i)
				}
			}
			if d := sum - checksum; d > 1e-6 || d < -1e-6 {
				return fmt.Errorf("sort: checksum drift %g", d)
			}
			return nil
		}
	}
	return built
}

// mergeRuns merges src[lo:mid] and src[mid:hi] (each sorted) into
// dst[lo:hi].
func mergeRuns(src, dst []float64, lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if src[i] <= src[j] {
			dst[k] = src[i]
			i++
		} else {
			dst[k] = src[j]
			j++
		}
		k++
	}
	for i < mid {
		dst[k] = src[i]
		i, k = i+1, k+1
	}
	for j < hi {
		dst[k] = src[j]
		j, k = j+1, k+1
	}
}
