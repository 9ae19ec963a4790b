package workloads

import (
	"fmt"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name: "wave",
		Description: "Sweeping hot window over a large array: the workload-variation stressor " +
			"(the production-code analog) whose hot set no static placement can follow",
		Build: buildWave,
		App:   true,
	})
}

// buildWave builds Scale iterations (default 24) of a banded update whose
// hot window sweeps across a large array in three phases: bands
// [0,W) are hot for the first third, [W,2W) for the second, [2W,3W) for
// the last. Every iteration also lightly touches all bands (a background
// scan), so offline aggregate profiles look nearly uniform — a static
// placement cannot tell which third matters when. An adaptive runtime
// re-profiles when task performance drifts after the window moves and
// re-plans placement; that is exactly the paper's workload-variation
// machinery, and this workload is where it pays.
func buildWave(p Params) Built {
	iters := defScale(p.Scale, 24)
	bands := 24
	bandElems := 1 << 21 // 16 MB per band, 384 MB total
	if p.Kernels {
		bandElems = 1 << 12
	}
	bandBytes := int64(8 * bandElems)
	window := bands / 3

	bld := task.NewBuilder("wave")
	bandID := make([]task.ObjectID, bands)
	for i := range bandID {
		bandID[i] = bld.Object(fmt.Sprintf("X[%d]", i), bandBytes)
	}
	// Per-iteration convergence scalar: a reduction writes it, the next
	// iteration's tasks read it. This is the iteration-carried dependence
	// every real iterative solver has (a residual check), and it keeps
	// read-only background scans from racing arbitrarily far ahead.
	epoch := bld.ObjectOpt("epoch", 64, false)

	var data []float64
	if p.Kernels {
		data = make([]float64, bands*bandElems)
		rng := newRng(17)
		for i := range data {
			data[i] = rng.float()
		}
	}

	hotKernel := func(b int) {
		lo, hi := b*bandElems, (b+1)*bandElems
		for i := lo; i < hi; i++ {
			data[i] = data[i]*0.5 + 1
		}
	}
	scanKernel := func(b int) float64 {
		lo := b * bandElems
		var s float64
		for i := lo; i < lo+bandElems; i += 64 {
			s += data[i]
		}
		return s
	}

	for it := 0; it < iters; it++ {
		phase := it * 3 / iters
		if phase > 2 {
			phase = 2
		}
		base := phase * window
		// Heavy streaming update over the hot window.
		hotAcc := make([]task.Access, 0, window)
		for w := 0; w < window; w++ {
			b := base + w
			var run func()
			if p.Kernels {
				b := b
				run = func() { hotKernel(b) }
			}
			bld.Submit("hot", cpuSec(2*float64(bandElems)), []task.Access{
				{Obj: epoch, Mode: task.In, Loads: 1, MLP: 1},
				{Obj: bandID[b], Mode: task.InOut,
					Loads: lines(bandBytes), Stores: lines(bandBytes), MLP: 8},
			}, run)
			hotAcc = append(hotAcc, task.Access{
				Obj: bandID[b], Mode: task.In, Loads: lines(bandBytes) / 256, MLP: 4,
			})
		}
		// Light background scan of everything (1/64 of the lines).
		for b := 0; b < bands; b++ {
			b := b
			var run func()
			if p.Kernels {
				run = func() { _ = scanKernel(b) }
			}
			bld.Submit("scan", cpuSec(float64(bandElems)/32), []task.Access{
				{Obj: epoch, Mode: task.In, Loads: 1, MLP: 1},
				{Obj: bandID[b], Mode: task.In, Loads: lines(bandBytes) / 64, MLP: 2},
			}, run)
		}
		// Residual check: reads the hot window, advances the epoch.
		bld.Submit("residual", cpuSec(float64(window*bandElems)/256),
			append(hotAcc, task.Access{Obj: epoch, Mode: task.InOut, Loads: 1, Stores: 1, MLP: 1}), nil)
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			// Each band was hot for its phase's iterations; the recurrence
			// x <- x/2 + 1 contracts toward 2, identically per element.
			// Verify against a serial replay.
			ref := make([]float64, len(data))
			rng := newRng(17)
			for i := range ref {
				ref[i] = rng.float()
			}
			for it := 0; it < iters; it++ {
				phase := it * 3 / iters
				if phase > 2 {
					phase = 2
				}
				for w := 0; w < window; w++ {
					b := phase*window + w
					lo, hi := b*bandElems, (b+1)*bandElems
					for i := lo; i < hi; i++ {
						ref[i] = ref[i]*0.5 + 1
					}
				}
			}
			if d := maxAbsDiff(data, ref); d > 1e-12 {
				return fmt.Errorf("wave: result differs from serial by %g", d)
			}
			return nil
		}
	}
	return built
}
