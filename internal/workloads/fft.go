package workloads

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name:        "fft",
		Description: "Iterative radix-2 FFT over blocks; stage stride alternates access patterns",
		Build:       buildFFT,
		App:         true,
		// 2^58 points are the most whose twiddle bytes, 16·2^58/2, and
		// total footprint fit in an int64; 16·2^59 already wraps.
		MaxScale: 58,
	})
}

// buildFFT builds an iterative radix-2 Cooley-Tukey FFT over a complex
// array of 2^Scale points (default 2^23, 128 MB) split into `blocks`
// equal blocks. A bit-reversal pass comes first; then log2(n) butterfly
// stages. Stages whose butterfly span fits inside one block spawn one
// task per block (contiguous, streaming access); wider stages spawn one
// task per block pair (strided access with lower memory-level
// parallelism). The single large data object is chunkable — FFT is the
// workload the paper found benefits from partitioning large objects.
func buildFFT(p Params) Built {
	logN := defScale(p.Scale, 23)
	if p.Kernels && p.Scale <= 0 {
		logN = 12
	}
	n := 1 << logN
	blocks := 16
	if n/blocks < 2 {
		blocks = n / 2
	}
	blockLen := n / blocks
	blockBytes := int64(16 * blockLen)

	bld := task.NewBuilder("fft")
	blkID := make([]task.ObjectID, blocks)
	for i := range blkID {
		blkID[i] = bld.Object(fmt.Sprintf("data[%d]", i), blockBytes)
	}
	twID := bld.ObjectOpt("twiddle", int64(16*n/2), false)

	var data []complex128
	var ref []complex128
	if p.Kernels {
		rng := newRng(5)
		data = make([]complex128, n)
		for i := range data {
			data[i] = complex(rng.float()-0.5, rng.float()-0.5)
		}
		ref = append([]complex128(nil), data...)
	}

	// Bit reversal: touches everything; one task (it is cheap).
	allAcc := make([]task.Access, 0, blocks)
	for _, id := range blkID {
		allAcc = append(allAcc, task.Access{
			Obj: id, Mode: task.InOut,
			Loads: lines(blockBytes), Stores: lines(blockBytes), MLP: 2,
		})
	}
	var bitrevRun func()
	if p.Kernels {
		bitrevRun = func() { bitReverse(data) }
	}
	bld.Submit("bitrev", cpuSec(float64(n)), allAcc, bitrevRun)

	for stage := 1; stage <= logN; stage++ {
		m := 1 << stage // butterfly span
		if m <= blockLen {
			// In-block stage: one streaming task per block.
			for b := 0; b < blocks; b++ {
				b := b
				var run func()
				if p.Kernels {
					run = func() { fftSpan(data, b*blockLen, blockLen, m) }
				}
				bld.Submit("fft_local", cpuSec(5*float64(blockLen)), []task.Access{
					{Obj: blkID[b], Mode: task.InOut, Loads: lines(blockBytes), Stores: lines(blockBytes), MLP: 8},
					{Obj: twID, Mode: task.In, Loads: lines(int64(16 * m / 2)), MLP: 8},
				}, run)
			}
			continue
		}
		// Cross-block stage: butterflies pair element i with i+m/2, i.e.
		// block b with block b + m/(2·blockLen).
		gap := m / 2 / blockLen
		for b := 0; b < blocks; b++ {
			if (b/gap)%2 != 0 {
				continue // covered by its partner
			}
			b := b
			var run func()
			if p.Kernels {
				run = func() { fftCross(data, b*blockLen, gap*blockLen, blockLen, m) }
			}
			bld.Submit("fft_cross", cpuSec(5*float64(blockLen)), []task.Access{
				{Obj: blkID[b], Mode: task.InOut, Loads: lines(blockBytes), Stores: lines(blockBytes), MLP: 2},
				{Obj: blkID[b+gap], Mode: task.InOut, Loads: lines(blockBytes), Stores: lines(blockBytes), MLP: 2},
				{Obj: twID, Mode: task.In, Loads: lines(blockBytes / 2), MLP: 2},
			}, run)
		}
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			// Spot-check against a direct DFT on a few bins (O(n) each).
			for _, k := range []int{0, 1, n / 3, n / 2, n - 1} {
				var want complex128
				for t, v := range ref {
					ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
					want += v * cmplx.Exp(complex(0, ang))
				}
				if d := cmplx.Abs(data[k] - want); d > 1e-6*float64(n) {
					return fmt.Errorf("fft: bin %d off by %g", k, d)
				}
			}
			return nil
		}
	}
	return built
}

// bitReverse permutes data into bit-reversed index order.
func bitReverse(d []complex128) {
	n := len(d)
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			d[i], d[j] = d[j], d[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
}

// fftSpan performs all span-m butterflies inside d[off : off+len].
func fftSpan(d []complex128, off, length, m int) {
	half := m / 2
	for base := off; base < off+length; base += m {
		for k := 0; k < half; k++ {
			ang := -2 * math.Pi * float64(k) / float64(m)
			w := cmplx.Exp(complex(0, ang))
			a, b := d[base+k], d[base+k+half]*w
			d[base+k], d[base+k+half] = a+b, a-b
		}
	}
}

// fftCross performs the butterflies pairing block [off, off+length) with
// the block `gapLen` elements later, within span-m butterflies.
func fftCross(d []complex128, off, gapLen, length, m int) {
	half := m / 2
	for i := off; i < off+length; i++ {
		k := i % m
		if k >= half {
			continue
		}
		// Partner index i+half lands gapLen·(half/gapLen) later; since
		// half >= blockLen here, partner is in the paired block region.
		j := i + half
		ang := -2 * math.Pi * float64(k) / float64(m)
		w := cmplx.Exp(complex(0, ang))
		a, b := d[i], d[j]*w
		d[i], d[j] = a+b, a-b
	}
}
