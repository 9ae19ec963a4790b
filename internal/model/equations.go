package model

import "repro/internal/mem"

// Params is the runtime model's configuration: the machine it reasons
// about, the calibration constants, and whether loads and stores are
// modeled separately (the paper's read/write distinction, which matters
// on asymmetric NVM and is one of the evaluated ablations).
type Params struct {
	HMS mem.HMS
	// CFBw and CFLat are the constant factors calibrated offline against
	// STREAM and pointer-chase runs; they absorb the systematic error of
	// sampling-based counting. 0 means uncalibrated (factor 1).
	CFBw  float64
	CFLat float64
	// DistinguishRW selects equations (4)/(5) over (2)/(3).
	DistinguishRW bool
}

func (p Params) cfBw() float64 {
	if p.CFBw > 0 {
		return p.CFBw
	}
	return 1
}

func (p Params) cfLat() float64 {
	if p.CFLat > 0 {
		return p.CFLat
	}
	return 1
}

// The benefit and cost equations below are stated over an arbitrary tier
// pair (from, to), as Unimem states them for any pair of memories. The
// paper's DRAM/NVM form is the pair (from=0, to=Fastest()); on the
// two-tier machine that is (InNVM, InDRAM).

// BenefitBWBetween is the bandwidth-side benefit (seconds saved) of
// moving traffic of `loads` and `stores` cache-line accesses from tier
// `from` to tier `to` — the paper's equation (4), or (2) when read/write
// are not distinguished. Negative when `to` is the slower tier.
func (p Params) BenefitBWBetween(loads, stores float64, from, to mem.Tier) float64 {
	src, dst := p.HMS.Device(from), p.HMS.Device(to)
	var onSrc, onDst float64
	if p.DistinguishRW {
		onSrc = loads*mem.CacheLineSize/src.ReadBW + stores*mem.CacheLineSize/src.WriteBW
		onDst = loads*mem.CacheLineSize/dst.ReadBW + stores*mem.CacheLineSize/dst.WriteBW
	} else {
		total := loads + stores
		onSrc = total * mem.CacheLineSize / meanBW(src)
		onDst = total * mem.CacheLineSize / meanBW(dst)
	}
	return (onSrc - onDst) * p.cfBw()
}

// BenefitLatBetween is the latency-side benefit over a tier pair — the
// paper's equation (5), or (3) without the read/write distinction.
func (p Params) BenefitLatBetween(loads, stores float64, from, to mem.Tier) float64 {
	src, dst := p.HMS.Device(from), p.HMS.Device(to)
	var onSrc, onDst float64
	if p.DistinguishRW {
		onSrc = loads*src.ReadLatSec() + stores*src.WriteLatSec()
		onDst = loads*dst.ReadLatSec() + stores*dst.WriteLatSec()
	} else {
		total := loads + stores
		onSrc = total * meanLatSec(src)
		onDst = total * meanLatSec(dst)
	}
	return (onSrc - onDst) * p.cfLat()
}

// BenefitProfiledBetween is the benefit equation the runtime evaluates
// over a sampled profile: the larger of the bandwidth-side benefit and
// the latency-side benefit deflated by the effective memory-level
// parallelism inferred on the source tier's device. This mirrors the
// machine's two bounds exactly — an access stream is as fast as the
// tighter of its bandwidth share and its latency floor — and stays
// computable purely from sampled counters: the equation-(1)
// bandwidth-consumption estimate supplies the concurrency the plain
// latency equations (3)/(5) would otherwise overcount. It strictly
// dominates a classify-then-pick-one rule: a threshold misclassification
// (e.g. a band whose task kind both streams into it and gathers from
// it) can zero a real latency benefit, while the max never does.
func (p Params) BenefitProfiledBetween(loads, stores, bwCons float64, from, to mem.Tier) float64 {
	bw := p.BenefitBWBetween(loads, stores, from, to)
	m := EffectiveMLP(bwCons, loads, stores, p.HMS.Device(from))
	lat := p.BenefitLatBetween(loads, stores, from, to) / m
	if bw > lat {
		return bw
	}
	return lat
}

// MigrationCostBetween is the paper's equation (6): the copy time at the
// pair's migration bandwidth not hidden by overlapping computation.
// overlapSec is the execution the helper thread can run under (from the
// task graph's dependence-safe window). On the two-tier machine every
// pair shares the single configured copy channel, HMS.CopyBW.
func (p Params) MigrationCostBetween(size int64, overlapSec float64, from, to mem.Tier) float64 {
	c := float64(size)/p.HMS.CopyBWBetween(from, to) - overlapSec
	if c < 0 {
		return 0
	}
	return c
}

// CalibrationFactor computes a constant factor from a measured and a
// model-predicted time for a calibration workload; multiplying the model
// by it makes the model exact on that workload.
func CalibrationFactor(measuredSec, predictedSec float64) float64 {
	if predictedSec <= 0 || measuredSec <= 0 {
		return 1
	}
	return measuredSec / predictedSec
}

// meanBW is the bandwidth used when reads and writes are not
// distinguished: the harmonic mean, which is the correct average for
// rates over a 50/50 traffic assumption.
func meanBW(d mem.DeviceSpec) float64 {
	return 2 / (1/d.ReadBW + 1/d.WriteBW)
}

// meanLatSec averages the two latencies for undistinguished traffic.
func meanLatSec(d mem.DeviceSpec) float64 {
	return (d.ReadLatSec() + d.WriteLatSec()) / 2
}

// EffectiveMLP infers an access stream's memory-level parallelism from
// its measured bandwidth consumption: a stream sustaining BWCons bytes/s
// of demand at a per-access latency of L seconds holds BWCons·L/64
// cache-line accesses in flight. This is how the runtime recovers the
// concurrency the plain latency equations (3)/(5) ignore — the sampled
// counters cannot observe MLP directly, but equation (1) encodes it.
func EffectiveMLP(bwCons, loads, stores float64, d mem.DeviceSpec) float64 {
	if loads+stores <= 0 || bwCons <= 0 {
		return 1
	}
	lat := (loads*d.ReadLatSec() + stores*d.WriteLatSec()) / (loads + stores)
	m := bwCons * lat / mem.CacheLineSize
	if m < 1 {
		return 1
	}
	return m
}
