package model

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/task"
)

func hmsHalfBW() mem.HMS {
	return mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 256*mem.MB)
}

func hms4xLat() mem.HMS {
	return mem.NewHMS(mem.DRAM(), mem.NVMLatency(4), 256*mem.MB)
}

func TestAccessTimeBounds(t *testing.T) {
	d := mem.DRAM()
	// Pure streaming (high MLP): bandwidth time dominates.
	lat, bw := AccessTime(1e6, 0, 16, d)
	if lat >= bw {
		t.Fatalf("streaming access should be bandwidth-bound: lat=%g bw=%g", lat, bw)
	}
	// Pointer chasing (MLP=1): latency time dominates.
	lat, bw = AccessTime(1e6, 0, 1, d)
	if lat <= bw {
		t.Fatalf("dependent access should be latency-bound: lat=%g bw=%g", lat, bw)
	}
}

func TestAccessTimeValues(t *testing.T) {
	d := mem.DRAM()
	lat, bw := AccessTime(1e6, 5e5, 1, d)
	wantLat := (1e6*10e-9 + 5e5*10e-9) / 1
	wantBW := 1e6*64/10e9 + 5e5*64/9e9
	if math.Abs(lat-wantLat) > 1e-12 {
		t.Fatalf("lat = %g, want %g", lat, wantLat)
	}
	if math.Abs(bw-wantBW) > 1e-12 {
		t.Fatalf("bw = %g, want %g", bw, wantBW)
	}
}

func TestAccessTimeClampsMLP(t *testing.T) {
	d := mem.DRAM()
	l1, _ := AccessTime(100, 0, 0.5, d)
	l2, _ := AccessTime(100, 0, 1, d)
	if l1 != l2 {
		t.Fatal("MLP below 1 must clamp to 1")
	}
}

func mkTask(loads, stores int64, mlp float64) *task.Task {
	return &task.Task{
		ID:     0,
		Kind:   "k",
		CPUSec: 0.001,
		Accesses: []task.Access{
			{Obj: 0, Mode: task.InOut, Loads: loads, Stores: stores, MLP: mlp},
		},
	}
}

func TestTaskDemandSplitsByResidency(t *testing.T) {
	h := hmsHalfBW()
	tk := mkTask(1e6, 0, 16) // streaming read
	all := func(task.ObjectID) float64 { return 0 }
	d := TaskDemand(tk, h, all)
	if d.DevSec[mem.InDRAM] != 0 {
		t.Fatal("NVM-resident object charged DRAM time")
	}
	wantNVM := 1e6 * 64 / (10e9 / 2)
	if math.Abs(d.DevSec[mem.InNVM]-wantNVM) > 1e-12 {
		t.Fatalf("NVM service = %g, want %g", d.DevSec[mem.InNVM], wantNVM)
	}
	// Half-resident: each tier gets half the loads at its own bandwidth.
	half := func(task.ObjectID) float64 { return 0.5 }
	d = TaskDemand(tk, h, half)
	if d.DevSec[mem.InDRAM] <= 0 || d.DevSec[mem.InNVM] <= 0 {
		t.Fatal("split residency must charge both tiers")
	}
	if math.Abs(d.DevSec[mem.InNVM]-2*d.DevSec[mem.InDRAM]) > 1e-12 {
		t.Fatalf("half-bandwidth NVM should cost 2x DRAM: %g vs %g",
			d.DevSec[mem.InNVM], d.DevSec[mem.InDRAM])
	}
}

func TestTaskDemandLatencyFloor(t *testing.T) {
	h := hms4xLat()
	tk := mkTask(1e5, 0, 1) // pointer chase
	d := TaskDemand(tk, h, func(task.ObjectID) float64 { return 0 })
	// The chase still demands its bytes on the device...
	wantBW := 1e5 * 64 / 10e9
	if math.Abs(d.DevSec[mem.InNVM]-wantBW) > 1e-15 {
		t.Fatalf("NVM service = %g, want %g", d.DevSec[mem.InNVM], wantBW)
	}
	// ...but its latency floor dominates: 1e5 accesses at 40 ns.
	wantLat := 1e5 * 40e-9
	if math.Abs(d.LatSec[mem.InNVM]-wantLat) > 1e-12 {
		t.Fatalf("NVM floor = %g, want %g", d.LatSec[mem.InNVM], wantLat)
	}
	if math.Abs(d.MemSec()-wantLat) > 1e-12 {
		t.Fatalf("MemSec = %g, want the floor %g", d.MemSec(), wantLat)
	}
	if math.Abs(d.TotalSec()-(0.001+wantLat)) > 1e-12 {
		t.Fatalf("TotalSec = %g", d.TotalSec())
	}
	// The stage rate cap spreads the bytes over the floor.
	rate := d.StageRate(mem.InNVM)
	if math.Abs(rate-wantBW/wantLat) > 1e-9 {
		t.Fatalf("StageRate = %g, want %g", rate, wantBW/wantLat)
	}
	// A streaming task has a floor far below its bandwidth time: no cap
	// worth applying (rate >> 1 in service units).
	st := mkTask(1e6, 0, 16)
	ds := TaskDemand(st, h, func(task.ObjectID) float64 { return 0 })
	if ds.StageRate(mem.InNVM) < 1 {
		t.Fatalf("streaming stage rate %g should exceed unit service rate", ds.StageRate(mem.InNVM))
	}
}

func TestLatencyFloorMakesHigherLatencySlower(t *testing.T) {
	// The physics guard: scaling a device's latency up can only increase
	// a task's zero-contention time.
	tk := mkTask(1e5, 5e4, 2)
	base := TaskDemand(tk, hmsHalfBW(), func(task.ObjectID) float64 { return 0 }).TotalSec()
	slow := TaskDemand(tk, hms4xLat(), func(task.ObjectID) float64 { return 0 }).TotalSec()
	if slow <= base {
		t.Fatalf("4x latency total %g not slower than base %g", slow, base)
	}
}

func TestTaskDemandObjSecAccounting(t *testing.T) {
	h := hmsHalfBW()
	tk := &task.Task{
		ID:   0,
		Kind: "k",
		Accesses: []task.Access{
			{Obj: 0, Mode: task.In, Loads: 1e6, MLP: 16},
			{Obj: 1, Mode: task.In, Loads: 1e5, MLP: 1},
		},
	}
	d := TaskDemand(tk, h, func(task.ObjectID) float64 { return 0 })
	if len(d.ObjSecs) != 2 {
		t.Fatalf("ObjSec entries = %d", len(d.ObjSecs))
	}
	sum := d.ObjSecOf(0) + d.ObjSecOf(1)
	if math.Abs(sum-d.MemSec()) > 1e-12 {
		t.Fatalf("per-object times %g do not sum to MemSec %g", sum, d.MemSec())
	}
}

func TestBenefitBWHalfBandwidth(t *testing.T) {
	p := Params{HMS: hmsHalfBW(), DistinguishRW: true}
	got := p.BenefitBWBetween(1e6, 0, mem.InNVM, mem.InDRAM)
	want := 1e6*64/5e9 - 1e6*64/10e9
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("BenefitBWBetween = %g, want %g", got, want)
	}
	if p.BenefitLatBetween(1e6, 0, mem.InNVM, mem.InDRAM) != 0 {
		t.Fatal("equal latencies must yield zero latency benefit")
	}
}

func TestBenefitLat4x(t *testing.T) {
	p := Params{HMS: hms4xLat(), DistinguishRW: true}
	got := p.BenefitLatBetween(1e6, 1e6, mem.InNVM, mem.InDRAM)
	want := (1e6*40e-9 + 1e6*40e-9) - (1e6*10e-9 + 1e6*10e-9)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("BenefitLatBetween = %g, want %g", got, want)
	}
	if math.Abs(p.BenefitBWBetween(1e6, 1e6, mem.InNVM, mem.InDRAM)) > 1e-15 {
		t.Fatal("equal bandwidths must yield zero bandwidth benefit")
	}
}

func TestReadWriteDistinctionMattersOnAsymmetricNVM(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.PCRAM(), 256*mem.MB)
	rw := Params{HMS: h, DistinguishRW: true}
	no := Params{HMS: h, DistinguishRW: false}
	// A write-heavy object: the r/w-distinguishing model sees a much
	// larger benefit (PCRAM writes are 10x slower than reads).
	wrRW := rw.BenefitLatBetween(0, 1e6, mem.InNVM, mem.InDRAM)
	wrNo := no.BenefitLatBetween(0, 1e6, mem.InNVM, mem.InDRAM)
	if wrRW <= wrNo {
		t.Fatalf("write-heavy benefit should grow with r/w distinction: %g vs %g", wrRW, wrNo)
	}
	// A read-heavy object: the r/w model sees a smaller benefit.
	rdRW := rw.BenefitLatBetween(1e6, 0, mem.InNVM, mem.InDRAM)
	rdNo := no.BenefitLatBetween(1e6, 0, mem.InNVM, mem.InDRAM)
	if rdRW >= rdNo {
		t.Fatalf("read-heavy benefit should shrink with r/w distinction: %g vs %g", rdRW, rdNo)
	}
}

func TestConstantFactorsScaleBenefits(t *testing.T) {
	p := Params{HMS: hmsHalfBW(), DistinguishRW: true, CFBw: 2, CFLat: 3}
	base := Params{HMS: hmsHalfBW(), DistinguishRW: true}
	if p.BenefitBWBetween(1e6, 0, mem.InNVM, mem.InDRAM) != 2*base.BenefitBWBetween(1e6, 0, mem.InNVM, mem.InDRAM) {
		t.Fatal("CFBw not applied")
	}
	pl := Params{HMS: hms4xLat(), DistinguishRW: true, CFLat: 3}
	bl := Params{HMS: hms4xLat(), DistinguishRW: true}
	if pl.BenefitLatBetween(1e6, 0, mem.InNVM, mem.InDRAM) != 3*bl.BenefitLatBetween(1e6, 0, mem.InNVM, mem.InDRAM) {
		t.Fatal("CFLat not applied")
	}
}

func TestMigrationCost(t *testing.T) {
	p := Params{HMS: hmsHalfBW()}
	size := int64(100 * mem.MB)
	raw := float64(size) / p.HMS.CopyBW
	if got := p.MigrationCostBetween(size, 0, mem.InNVM, mem.InDRAM); math.Abs(got-raw) > 1e-12 {
		t.Fatalf("unoverlapped cost = %g, want %g", got, raw)
	}
	if got := p.MigrationCostBetween(size, raw/2, mem.InNVM, mem.InDRAM); math.Abs(got-raw/2) > 1e-12 {
		t.Fatalf("half-overlapped cost = %g, want %g", got, raw/2)
	}
	if got := p.MigrationCostBetween(size, raw*10, mem.InNVM, mem.InDRAM); got != 0 {
		t.Fatalf("fully overlapped cost = %g, want 0", got)
	}
}

func TestCalibrationFactor(t *testing.T) {
	if CalibrationFactor(2, 1) != 2 {
		t.Fatal("factor wrong")
	}
	if CalibrationFactor(0, 1) != 1 || CalibrationFactor(1, 0) != 1 {
		t.Fatal("degenerate inputs must return 1")
	}
}

// TestBenefitMonotonicity property-checks that benefits never decrease
// when traffic increases, and are non-negative whenever NVM is no faster
// than DRAM on every axis.
func TestBenefitMonotonicity(t *testing.T) {
	p := Params{HMS: hmsHalfBW(), DistinguishRW: true}
	check := func(l1, s1, dl, ds uint32) bool {
		loads, stores := float64(l1%1e6), float64(s1%1e6)
		moreL, moreS := loads+float64(dl%1e6), stores+float64(ds%1e6)
		b1 := p.BenefitBWBetween(loads, stores, mem.InNVM, mem.InDRAM)
		b2 := p.BenefitBWBetween(moreL, moreS, mem.InNVM, mem.InDRAM)
		if b2 < b1-1e-15 {
			return false
		}
		return b1 >= -1e-15 && p.BenefitLatBetween(loads, stores, mem.InNVM, mem.InDRAM) >= -1e-15
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDemandMatchesBenefit ties the two model layers together: for a
// fully streaming object, the ground-truth NVM-vs-DRAM service time
// difference equals the (uncalibrated, r/w-distinguished) modeled benefit.
func TestDemandMatchesBenefit(t *testing.T) {
	h := hmsHalfBW()
	tk := mkTask(2e6, 1e6, 16)
	inNVM := TaskDemand(tk, h, func(task.ObjectID) float64 { return 0 })
	inDRAM := TaskDemand(tk, h, func(task.ObjectID) float64 { return 1 })
	truth := inNVM.TotalSec() - inDRAM.TotalSec()
	p := Params{HMS: h, DistinguishRW: true}
	modeled := p.BenefitBWBetween(2e6, 1e6, mem.InNVM, mem.InDRAM)
	if math.Abs(truth-modeled) > 1e-12 {
		t.Fatalf("ground truth %g != modeled benefit %g", truth, modeled)
	}
}
