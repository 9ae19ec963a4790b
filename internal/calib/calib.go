// Package calib computes the performance-model constant factors CF_bw
// and CF_lat, the paper's once-per-platform offline calibration: run a
// maximally bandwidth-bound workload (STREAM) and a maximally
// latency-bound workload (pointer chase), predict their memory time from
// sampled counter readings with the bare equations, measure their true
// memory time, and take the ratios. The factors absorb the systematic
// error of sampling-based counting (and any other fixed modeling bias),
// so the online model needs no per-application tuning.
package calib

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/prof"
	"repro/internal/task"
	"repro/internal/workloads"
)

// Factors holds the calibration output.
type Factors struct {
	CFBw  float64
	CFLat float64
	// PeakBW is the measured peak memory bandwidth in bytes/second, from
	// the STREAM run (used by the sensitivity classifier's thresholds).
	PeakBW float64
}

// Calibrate runs the two microbenchmarks against the DRAM device of the
// given machine with the given sampling configuration. It needs to be
// done once per (machine, sampling) pair; factors are valid for every
// application on that platform.
func Calibrate(h mem.HMS, pc prof.Config) (Factors, error) {
	stream, err := workloads.ByName("stream")
	if err != nil {
		return Factors{}, err
	}
	chase, err := workloads.ByName("pchase")
	if err != nil {
		return Factors{}, err
	}

	cfBw, peak, err := calibrateOne(stream.Build(workloads.Params{}).Graph, h, pc, true)
	if err != nil {
		return Factors{}, err
	}
	cfLat, _, err := calibrateOne(chase.Build(workloads.Params{}).Graph, h, pc, false)
	if err != nil {
		return Factors{}, err
	}
	return Factors{CFBw: cfBw, CFLat: cfLat, PeakBW: peak}, nil
}

// calibrateOne measures one calibration graph: ground-truth memory time
// on DRAM versus the bare-equation prediction from sampled counts.
func calibrateOne(g *task.Graph, h mem.HMS, pc prof.Config, bandwidth bool) (cf, peakBW float64, err error) {
	dram := h.Device(h.Fastest())
	var measured, predicted, bytes float64
	allDRAM := func(task.ObjectID) float64 { return 1 }
	for _, t := range g.Tasks {
		d := model.TaskDemand(t, h, allDRAM)
		measured += d.MemSec()
		for _, a := range t.Accesses {
			key := uint64(t.ID)<<20 ^ uint64(a.Obj)
			loads := float64(pc.Sample(a.Loads, key))
			stores := float64(pc.Sample(a.Stores, key+1))
			bytes += (loads + stores) * mem.CacheLineSize
			if bandwidth {
				predicted += loads*mem.CacheLineSize/dram.ReadBW +
					stores*mem.CacheLineSize/dram.WriteBW
			} else {
				predicted += loads*dram.ReadLatSec() + stores*dram.WriteLatSec()
			}
		}
	}
	if predicted <= 0 || measured <= 0 {
		return 1, 0, fmt.Errorf("calib: degenerate calibration (measured %g, predicted %g)", measured, predicted)
	}
	if measured > 0 {
		peakBW = bytes / measured
	}
	return model.CalibrationFactor(measured, predicted), peakBW, nil
}
