package model

import (
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/task"
)

func cacheTask(loads, stores int64, mlp float64) *task.Task {
	return &task.Task{
		ID: 0, Kind: "k", CPUSec: 0,
		Accesses: []task.Access{{Obj: 0, Mode: task.InOut, Loads: loads, Stores: stores, MLP: mlp}},
	}
}

func TestHWCachePerfectHitMatchesDRAM(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 256*mem.MB)
	tk := cacheTask(1e6, 0, 16)
	hw := HWCacheDemand(tk, h, 1.0)
	// All hits: loads read DRAM, no NVM traffic at all.
	if hw.DevSec[mem.InNVM] != 0 || hw.LatSec[mem.InNVM] != 0 {
		t.Fatalf("perfect hit ratio produced NVM traffic: %+v", hw)
	}
	want := 1e6 * 64 / h.Device(mem.InDRAM).ReadBW
	if math.Abs(hw.DevSec[mem.InDRAM]-want) > 1e-15 {
		t.Fatalf("DRAM service = %g, want %g", hw.DevSec[mem.InDRAM], want)
	}
}

func TestHWCacheMissesPayFillTraffic(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 256*mem.MB)
	tk := cacheTask(1e6, 0, 16)
	sw := TaskDemand(tk, h, func(task.ObjectID) float64 { return 0 }) // software: all NVM
	hw := HWCacheDemand(tk, h, 0.0)                                   // cache: all misses
	// Same NVM read traffic, but the cache additionally writes fills
	// into DRAM — total memory time strictly exceeds the software
	// placement's.
	if hw.DevSec[mem.InNVM] < sw.DevSec[mem.InNVM]-1e-15 {
		t.Fatalf("cache NVM traffic %g below software %g", hw.DevSec[mem.InNVM], sw.DevSec[mem.InNVM])
	}
	if hw.DevSec[mem.InDRAM] <= 0 {
		t.Fatal("misses did not pay DRAM fill traffic")
	}
	if hw.MemSec() <= sw.MemSec() {
		t.Fatalf("cache total %g not above software %g", hw.MemSec(), sw.MemSec())
	}
}

func TestHWCacheStoreMissesWriteBack(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.PCRAM(), 256*mem.MB)
	tk := cacheTask(0, 1e6, 8)
	hit := HWCacheDemand(tk, h, 1.0)
	miss := HWCacheDemand(tk, h, 0.0)
	// Store hits stay in the cache; store misses eventually write back to
	// PCRAM at its painful write bandwidth.
	if hit.DevSec[mem.InNVM] != 0 {
		t.Fatal("store hits should not touch NVM")
	}
	wb := 1e6 * 64 / h.Device(mem.InNVM).WriteBW
	if miss.DevSec[mem.InNVM] < wb {
		t.Fatalf("store misses wrote back %g, want at least %g", miss.DevSec[mem.InNVM], wb)
	}
}

func TestHWCacheHitRatioClamped(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 256*mem.MB)
	tk := cacheTask(1e5, 1e5, 4)
	lo := HWCacheDemand(tk, h, -0.5)
	zero := HWCacheDemand(tk, h, 0)
	if lo.MemSec() != zero.MemSec() {
		t.Fatal("negative hit ratio not clamped to 0")
	}
	hi := HWCacheDemand(tk, h, 1.5)
	one := HWCacheDemand(tk, h, 1)
	if hi.MemSec() != one.MemSec() {
		t.Fatal("hit ratio above 1 not clamped")
	}
}

func TestEffectiveMLP(t *testing.T) {
	d := mem.DRAM()
	// A pure chase: consumption = 64 bytes per latency.
	chaseBW := 64 / d.ReadLatSec()
	if m := EffectiveMLP(chaseBW, 1e6, 0, d); math.Abs(m-1) > 1e-9 {
		t.Fatalf("chase MLP = %g, want 1", m)
	}
	// Four-wide pipelining: 4x the consumption.
	if m := EffectiveMLP(4*chaseBW, 1e6, 0, d); math.Abs(m-4) > 1e-9 {
		t.Fatalf("4-wide MLP = %g, want 4", m)
	}
	// Degenerate inputs clamp to 1.
	if EffectiveMLP(0, 1e6, 0, d) != 1 || EffectiveMLP(1e9, 0, 0, d) != 1 {
		t.Fatal("degenerate MLP not clamped")
	}
	if EffectiveMLP(1, 1e6, 0, d) != 1 {
		t.Fatal("sub-1 MLP not clamped")
	}
}

func TestBenefitProfiledTakesTheTighterBound(t *testing.T) {
	// Latency-limited NVM (same bandwidth): the bandwidth side is zero,
	// so the profiled benefit must be the MLP-deflated latency side.
	h := mem.NewHMS(mem.DRAM(), mem.NVMLatency(4), 256*mem.MB)
	p := Params{HMS: h, DistinguishRW: true}
	loads := 1e6
	// Stream at effective MLP 4 on NVM.
	bwCons := 4 * 64 / h.Device(mem.InNVM).ReadLatSec()
	got := p.BenefitProfiledBetween(loads, 0, bwCons, mem.InNVM, mem.InDRAM)
	want := p.BenefitLatBetween(loads, 0, mem.InNVM, mem.InDRAM) / 4
	if math.Abs(got-want) > 1e-12*want {
		t.Fatalf("profiled benefit = %g, want %g", got, want)
	}
	// Bandwidth-limited NVM (same latency): the bandwidth side wins for
	// a high-MLP stream.
	hb := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 256*mem.MB)
	pb := Params{HMS: hb, DistinguishRW: true}
	got = pb.BenefitProfiledBetween(loads, 0, 8e9, mem.InNVM, mem.InDRAM)
	if math.Abs(got-pb.BenefitBWBetween(loads, 0, mem.InNVM, mem.InDRAM)) > 1e-15 {
		t.Fatalf("bandwidth-side benefit not taken: %g", got)
	}
}

func TestBenefitProfiledNeverZeroedByMisclassification(t *testing.T) {
	// The regression this API exists for: a latency-bound object whose
	// aggregated consumption estimate looks "bandwidth-sensitive" must
	// still report its latency benefit on an equal-bandwidth NVM.
	h := mem.NewHMS(mem.DRAM(), mem.NVMLatency(4), 256*mem.MB)
	p := Params{HMS: h, DistinguishRW: true}
	highCons := 0.9 * h.Device(mem.InNVM).ReadBW // above the paper's t1 = 80%-of-peak threshold
	if got := p.BenefitProfiledBetween(1e6, 0, highCons, mem.InNVM, mem.InDRAM); got <= 0 {
		t.Fatalf("benefit zeroed: %g", got)
	}
}
