// Package model holds the two model layers of the system.
//
// The first layer (this file) is the ground truth of the simulated
// machine: how long a task's memory traffic takes on a given device mix.
// Every access stream contributes two things per device:
//
//   - a bandwidth demand — its bytes, which processor-share the device
//     with every other concurrent stream; and
//   - a latency floor — (loads·RL + stores·WL)/MLP, the fastest the
//     stream can go regardless of idle bandwidth, because dependent
//     accesses cannot be pipelined beyond the stream's memory-level
//     parallelism.
//
// A streaming access (high MLP) has a negligible floor and is governed
// by bandwidth and contention; a pointer chase (MLP=1) has a floor far
// above its bandwidth time and is governed by device latency, consuming
// almost no bandwidth. These are exactly the two sensitivities
// (bandwidth-sensitive vs latency-sensitive data objects) the paper's
// placement decisions key on — and the floor keeps the physics honest:
// raising latency can only ever slow a device down.
//
// The second layer (equations.go) is the runtime's approximate view: the
// paper's benefit and cost equations evaluated over noisy sampled
// profiles and calibrated with constant factors. The gap between the two
// layers is the honest part of the reproduction: the runtime plans with
// its model, the simulator charges the truth. predict.go folds the
// runtime view into a per-access-stream time prediction
// (PredictAccessSec) — the quantity the feedback loop
// (internal/feedback) compares against the simulator's actual charge,
// making that gap observable to the runtime itself. DESIGN.md's
// "Model-equation cross-reference" section maps each equation to the
// paper feature it reconstructs and its truth-side counterpart.
//
// Both layers are tier-general: demand accumulators are per-tier arrays
// (TaskDemandTiered splits traffic over any number of tiers), and the
// benefit and migration-cost equations are stated over arbitrary tier
// pairs (the *Between functions). The paper's
// two-tier DRAM/NVM machine is the N=2 case of the same code.
package model

import (
	"repro/internal/mem"
	"repro/internal/task"
)

// AccessTime returns the two candidate times for an access's traffic on a
// device — the latency floor and the bandwidth time at zero contention —
// in seconds. The stream's actual duration is at least the larger of the
// two, and grows with bandwidth contention.
func AccessTime(loads, stores float64, mlp float64, d mem.DeviceSpec) (lat, bw float64) {
	if mlp < 1 {
		mlp = 1
	}
	lat = (loads*d.ReadLatSec() + stores*d.WriteLatSec()) / mlp
	bw = loads*mem.CacheLineSize/d.ReadBW + stores*mem.CacheLineSize/d.WriteBW
	return lat, bw
}

// ObjSec is one object's share of a task's memory time.
type ObjSec struct {
	Obj task.ObjectID
	Sec float64
}

// Demand is a task's ground-truth resource demand under a placement.
// Bandwidth demand is expressed in service seconds at the device's peak
// (the simulation's device resources run at unit rate), so one second of
// DevSec occupies the whole device for one second. Per-tier accumulators
// are fixed mem.MaxTiers arrays (unused tiers stay zero), and the Fill
// methods reuse the ObjSecs list, so a caller-owned Demand is recomputed
// without allocating.
type Demand struct {
	// FixedSec is pure CPU time; it does not touch memory devices.
	FixedSec float64
	// DevSec[tier] is bandwidth-bound service time on each device.
	DevSec [mem.MaxTiers]float64
	// LatSec[tier] is the latency floor of the task's accesses on each
	// device: its device stage cannot finish faster than this.
	LatSec [mem.MaxTiers]float64
	// ObjSecs holds the per-object memory time (the larger of floor and
	// zero-contention bandwidth time) in first-access order; the
	// profiler's time-share observations derive from it. Tasks touch a
	// handful of objects, so a flat association list beats a map — read
	// it with ObjSecOf.
	ObjSecs []ObjSec

	// BytesRead[tier] and BytesWritten[tier] are the task's traffic per
	// device, for energy accounting.
	BytesRead    [mem.MaxTiers]float64
	BytesWritten [mem.MaxTiers]float64

	// memSec accumulates the ObjSecs total in access order, so MemSec is
	// deterministic.
	memSec float64
}

// ObjSecOf returns the object's memory time, zero if the task never
// touches it.
func (d Demand) ObjSecOf(obj task.ObjectID) float64 {
	for _, e := range d.ObjSecs {
		if e.Obj == obj {
			return e.Sec
		}
	}
	return 0
}

// addObjSec accumulates memory time against an object.
func (d *Demand) addObjSec(obj task.ObjectID, sec float64) {
	for i := range d.ObjSecs {
		if d.ObjSecs[i].Obj == obj {
			d.ObjSecs[i].Sec += sec
			return
		}
	}
	d.ObjSecs = append(d.ObjSecs, ObjSec{Obj: obj, Sec: sec})
}

// MemSec returns the total zero-contention memory time: per object, the
// governing bound.
func (d Demand) MemSec() float64 { return d.memSec }

// TotalSec returns the task's zero-contention execution time estimate.
func (d Demand) TotalSec() float64 {
	t := d.FixedSec
	for tier := 0; tier < mem.MaxTiers; tier++ {
		dev := d.DevSec[tier]
		if d.LatSec[tier] > dev {
			dev = d.LatSec[tier]
		}
		t += dev
	}
	return t
}

// DevSecTotal sums the per-tier bandwidth service times in ascending
// tier order (unused entries are zero, so summing the full array is
// exact).
func (d Demand) DevSecTotal() float64 {
	var s float64
	for tier := 0; tier < mem.MaxTiers; tier++ {
		s += d.DevSec[tier]
	}
	return s
}

// LatSecTotal sums the per-tier latency floors in ascending tier order.
func (d Demand) LatSecTotal() float64 {
	var s float64
	for tier := 0; tier < mem.MaxTiers; tier++ {
		s += d.LatSec[tier]
	}
	return s
}

// StageRate returns the simulation rate cap for a tier's device stage:
// the stage's service bytes spread over its latency floor. Zero means
// uncapped (no floor).
func (d Demand) StageRate(tier mem.Tier) float64 {
	if d.LatSec[tier] <= 0 || d.DevSec[tier] <= 0 {
		return 0
	}
	return d.DevSec[tier] / d.LatSec[tier]
}

// TaskDemandTiered computes the ground-truth demand of one task under the
// current placement: tierFrac gives, per (object, tier), the fraction of
// the object's bytes resident on that tier, and traffic splits
// proportionally across every tier holding a share (uniform-access
// assumption over the object, refined only by chunking). Tiers are
// visited fastest to slowest.
func TaskDemandTiered(t *task.Task, h mem.HMS, tierFrac func(task.ObjectID, mem.Tier) float64) Demand {
	var d Demand
	d.FillTiered(t, h, tierFrac)
	return d
}

// reset clears d for task t, keeping the ObjSecs backing array when it
// can hold one entry per access: a caller that owns a Demand, like the
// runtime's pooled task flows, computes demands without allocating.
func (d *Demand) reset(t *task.Task) {
	objSecs := d.ObjSecs[:0]
	if cap(objSecs) < len(t.Accesses) {
		objSecs = make([]ObjSec, 0, len(t.Accesses))
	}
	*d = Demand{FixedSec: t.CPUSec, ObjSecs: objSecs}
}

// FillTiered overwrites d with TaskDemandTiered(t, h, tierFrac), reusing
// d's ObjSecs array.
func (d *Demand) FillTiered(t *task.Task, h mem.HMS, tierFrac func(task.ObjectID, mem.Tier) float64) {
	d.reset(t)
	nt := h.NumTiers()
	for _, a := range t.Accesses {
		var objTime float64
		for ti := nt - 1; ti >= 0; ti-- {
			tier := mem.Tier(ti)
			share := tierFrac(a.Obj, tier)
			if share <= 0 {
				continue
			}
			loads := float64(a.Loads) * share
			stores := float64(a.Stores) * share
			lat, bw := AccessTime(loads, stores, a.MLP, h.Device(tier))
			d.DevSec[tier] += bw
			d.LatSec[tier] += lat
			d.BytesRead[tier] += loads * mem.CacheLineSize
			d.BytesWritten[tier] += stores * mem.CacheLineSize
			if lat > bw {
				objTime += lat
			} else {
				objTime += bw
			}
		}
		d.addObjSec(a.Obj, objTime)
		d.memSec += objTime
	}
}

// TaskDemand is TaskDemandTiered for a two-way split: dramFrac gives,
// per object, the fraction of its bytes on tier InDRAM, and the rest
// lies on tier InNVM.
func TaskDemand(t *task.Task, h mem.HMS, dramFrac func(task.ObjectID) float64) Demand {
	return TaskDemandTiered(t, h, func(obj task.ObjectID, tier mem.Tier) float64 {
		switch tier {
		case mem.InDRAM:
			return dramFrac(obj)
		case mem.InNVM:
			return 1 - dramFrac(obj)
		}
		return 0
	})
}
