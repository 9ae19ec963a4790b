package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/task"
)

// The *Between functions' contract: evaluated over the classic pair
// (from=InNVM, to=InDRAM) they must be bit-identical to the paper's
// two-tier DRAM/NVM equations (frozen below as twoTier*), for any
// parameter soup.
func TestBetweenMatchesLegacyBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, drw := range []bool{false, true} {
		h := mem.NewHMS(mem.DRAM(), mem.OptanePM(), 128*mem.MB)
		p := Params{HMS: h, DistinguishRW: drw}
		for i := 0; i < 500; i++ {
			loads := rng.Float64() * 1e7
			stores := rng.Float64() * 1e7
			bwCons := rng.Float64() * 10e9
			size := int64(rng.Intn(1 << 26))
			overlap := rng.Float64() * 1e-2

			if a, b := p.BenefitBWBetween(loads, stores, mem.InNVM, mem.InDRAM), twoTierBWSaving(p, loads, stores); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("drw=%v: BenefitBWBetween %v != two-tier form %v", drw, a, b)
			}
			if a, b := p.BenefitLatBetween(loads, stores, mem.InNVM, mem.InDRAM), twoTierLatSaving(p, loads, stores); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("drw=%v: BenefitLatBetween %v != two-tier form %v", drw, a, b)
			}
			if a, b := p.BenefitProfiledBetween(loads, stores, bwCons, mem.InNVM, mem.InDRAM), twoTierProfiledSaving(p, loads, stores, bwCons); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("drw=%v: BenefitProfiledBetween %v != two-tier form %v", drw, a, b)
			}
			if a, b := p.MigrationCostBetween(size, overlap, mem.InNVM, mem.InDRAM), twoTierCopyCost(p, size, overlap); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("drw=%v: MigrationCostBetween %v != two-tier form %v", drw, a, b)
			}
		}
	}
}

// TaskDemandTiered with a two-tier fraction function must reproduce the
// two-tier DRAM-then-NVM demand loop (frozen below as twoTierTaskDemand)
// bit for bit: same per-tier accumulators, same ObjSec, same MemSec.
func TestTaskDemandTieredMatchesTwoTier(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := mem.NewHMS(mem.DRAM(), mem.OptanePM(), 64*mem.MB)
	b := task.NewBuilder("tiered-demand")
	objs := make([]task.ObjectID, 5)
	for i := range objs {
		objs[i] = b.Object("o", int64(i+1)*mem.MB)
	}
	var acc []task.Access
	for i := 0; i < 9; i++ {
		acc = append(acc, task.Access{
			Obj:    objs[i%len(objs)],
			Mode:   task.AccessMode(i % 3),
			Loads:  int64(rng.Intn(300000)),
			Stores: int64(rng.Intn(150000)),
			MLP:    float64(1 + rng.Intn(10)),
		})
	}
	b.Submit("k", 1e-5, acc, nil)
	g := b.Build()
	tk := g.Tasks[0]

	fracs := make(map[task.ObjectID]float64)
	for _, o := range objs {
		fracs[o] = rng.Float64()
	}
	legacy := twoTierTaskDemand(tk, h, func(obj task.ObjectID) float64 { return fracs[obj] })
	tiered := TaskDemandTiered(tk, h, func(obj task.ObjectID, tier mem.Tier) float64 {
		if tier == mem.InDRAM {
			return fracs[obj]
		}
		return 1 - fracs[obj]
	})

	if math.Float64bits(legacy.FixedSec) != math.Float64bits(tiered.FixedSec) {
		t.Errorf("FixedSec differs")
	}
	if math.Float64bits(legacy.MemSec()) != math.Float64bits(tiered.MemSec()) {
		t.Errorf("MemSec %v != %v", legacy.MemSec(), tiered.MemSec())
	}
	for tier := 0; tier < mem.MaxTiers; tier++ {
		if math.Float64bits(legacy.DevSec[tier]) != math.Float64bits(tiered.DevSec[tier]) {
			t.Errorf("DevSec[%d] %v != %v", tier, legacy.DevSec[tier], tiered.DevSec[tier])
		}
		if math.Float64bits(legacy.LatSec[tier]) != math.Float64bits(tiered.LatSec[tier]) {
			t.Errorf("LatSec[%d] differs", tier)
		}
		if math.Float64bits(legacy.BytesRead[tier]) != math.Float64bits(tiered.BytesRead[tier]) {
			t.Errorf("BytesRead[%d] differs", tier)
		}
		if math.Float64bits(legacy.BytesWritten[tier]) != math.Float64bits(tiered.BytesWritten[tier]) {
			t.Errorf("BytesWritten[%d] differs", tier)
		}
	}
	for _, e := range legacy.ObjSecs {
		if math.Float64bits(e.Sec) != math.Float64bits(tiered.ObjSecOf(e.Obj)) {
			t.Errorf("ObjSec[%d] %v != %v", e.Obj, e.Sec, tiered.ObjSecOf(e.Obj))
		}
	}
}

// On a three-tier machine the demand must land on the tier the fraction
// function names, and the total must cover every share.
func TestTaskDemandTieredThreeTier(t *testing.T) {
	h := mem.DRAMCXLNVM(64*mem.MB, 128*mem.MB)
	b := task.NewBuilder("tiered-3")
	o := b.Object("o", 8*mem.MB)
	b.Submit("k", 0, []task.Access{{Obj: o, Mode: task.In, Loads: 100000, MLP: 4}}, nil)
	g := b.Build()

	shares := []float64{0.2, 0.3, 0.5} // NVM, CXL, DRAM
	d := TaskDemandTiered(g.Tasks[0], h, func(_ task.ObjectID, tier mem.Tier) float64 {
		return shares[tier]
	})
	for tier := 0; tier < 3; tier++ {
		if d.DevSec[tier] <= 0 {
			t.Errorf("tier %d got no bandwidth demand", tier)
		}
		wantBytes := 100000 * shares[tier] * mem.CacheLineSize
		if math.Abs(d.BytesRead[tier]-wantBytes) > 1 {
			t.Errorf("tier %d read bytes %v, want %v", tier, d.BytesRead[tier], wantBytes)
		}
	}
	if d.DevSec[3] != 0 || d.LatSec[3] != 0 {
		t.Errorf("unused tier 3 accumulated demand")
	}
	// CXL is slower than DRAM and faster than Optane per byte: with these
	// shares the NVM share must dominate its DRAM-equivalent traffic time.
	if d.DevSec[0] <= d.DevSec[2]*shares[0]/shares[2] {
		t.Errorf("NVM share not slower per byte than DRAM share: %v vs %v", d.DevSec[0], d.DevSec[2])
	}
}

// The twoTier* functions freeze the two-tier DRAM/NVM forms of the model
// the tier-general code replaced; they exist only as oracles for the
// bit-identity tests above.

func twoTierBWSaving(p Params, loads, stores float64) float64 {
	nvm, dram := p.HMS.Device(mem.InNVM), p.HMS.Device(mem.InDRAM)
	var onNVM, onDRAM float64
	if p.DistinguishRW {
		onNVM = loads*mem.CacheLineSize/nvm.ReadBW + stores*mem.CacheLineSize/nvm.WriteBW
		onDRAM = loads*mem.CacheLineSize/dram.ReadBW + stores*mem.CacheLineSize/dram.WriteBW
	} else {
		total := loads + stores
		onNVM = total * mem.CacheLineSize / meanBW(nvm)
		onDRAM = total * mem.CacheLineSize / meanBW(dram)
	}
	return (onNVM - onDRAM) * p.cfBw()
}

func twoTierLatSaving(p Params, loads, stores float64) float64 {
	nvm, dram := p.HMS.Device(mem.InNVM), p.HMS.Device(mem.InDRAM)
	var onNVM, onDRAM float64
	if p.DistinguishRW {
		onNVM = loads*nvm.ReadLatSec() + stores*nvm.WriteLatSec()
		onDRAM = loads*dram.ReadLatSec() + stores*dram.WriteLatSec()
	} else {
		total := loads + stores
		onNVM = total * meanLatSec(nvm)
		onDRAM = total * meanLatSec(dram)
	}
	return (onNVM - onDRAM) * p.cfLat()
}

func twoTierProfiledSaving(p Params, loads, stores, bwCons float64) float64 {
	bw := twoTierBWSaving(p, loads, stores)
	lat := twoTierLatSaving(p, loads, stores) / EffectiveMLP(bwCons, loads, stores, p.HMS.Device(mem.InNVM))
	if bw > lat {
		return bw
	}
	return lat
}

func twoTierCopyCost(p Params, size int64, overlapSec float64) float64 {
	c := float64(size)/p.HMS.CopyBW - overlapSec
	if c < 0 {
		return 0
	}
	return c
}

func twoTierTaskDemand(t *task.Task, h mem.HMS, dramFrac func(task.ObjectID) float64) Demand {
	d := Demand{ObjSecs: make([]ObjSec, 0, len(t.Accesses))}
	d.FixedSec = t.CPUSec
	for _, a := range t.Accesses {
		f := dramFrac(a.Obj)
		var objTime float64
		for _, tier := range []mem.Tier{mem.InDRAM, mem.InNVM} {
			share := f
			if tier == mem.InNVM {
				share = 1 - f
			}
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
	return d
}
