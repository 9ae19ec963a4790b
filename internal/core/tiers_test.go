package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
)

// resultBits flattens a Result's float fields for bitwise comparison.
func resultBits(r Result) map[string]uint64 {
	return map[string]uint64{
		"Time":        math.Float64bits(r.Time),
		"CopySec":     math.Float64bits(r.Migration.CopySec),
		"ExposedSec":  math.Float64bits(r.Migration.ExposedSec),
		"Overhead":    math.Float64bits(r.RuntimeOverheadSec),
		"EnergyJ":     math.Float64bits(r.EnergyJ),
		"EnergyDynJ":  math.Float64bits(r.EnergyDynamicJ),
		"EnergyStatJ": math.Float64bits(r.EnergyStaticJ),
		"MemBusy":     math.Float64bits(r.MemBusyFrac),
		"CopyBusy":    math.Float64bits(r.CopyBusyFrac),
	}
}

// The tentpole's regression guard: an explicit two-element tier list must
// reproduce the classic two-tier machine's results bit for bit — same
// makespan, migrations, overheads, and energy — across policies and
// randomized workloads. The tier generalization must cost the two-tier
// configuration nothing, not even a ULP.
func TestTieredTwoTierBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := equivGraph(seed)
		caps := []int64{16, 48, 128}[seed%3] * mem.MB
		classic := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), caps)
		tiered := mem.NewTieredHMS(
			mem.TierSpec{Device: mem.NVMBandwidth(0.5), Capacity: classic.Capacity(0)},
			mem.TierSpec{Device: mem.DRAM(), Capacity: caps},
		)

		for _, pol := range []Policy{NVMOnly, DRAMOnly, FirstTouch, XMem, HWCache, PhaseBased, Tahoe} {
			cfgA := DefaultConfig(classic)
			cfgA.Policy = pol
			cfgA.Workers = int(seed%4) + 1
			cfgB := cfgA
			cfgB.HMS = tiered

			ra, errA := Run(g, cfgA)
			rb, errB := Run(g, cfgB)
			if errA != nil || errB != nil {
				t.Fatalf("seed %d %v: classic err %v, tiered err %v", seed, pol, errA, errB)
			}
			ba, bb := resultBits(ra), resultBits(rb)
			for k, va := range ba {
				if vb := bb[k]; va != vb {
					t.Errorf("seed %d %v: %s differs: classic %x tiered %x", seed, pol, k, va, vb)
				}
			}
			if ra.Migration.Migrations != rb.Migration.Migrations ||
				ra.Migration.BytesMoved != rb.Migration.BytesMoved ||
				ra.Migration.Failed() != rb.Migration.Failed() {
				t.Errorf("seed %d %v: migration counts differ: %+v vs %+v",
					seed, pol, ra.Migration, rb.Migration)
			}
			if ra.PlanKind != rb.PlanKind || ra.Replans != rb.Replans {
				t.Errorf("seed %d %v: plan trajectory differs: %s/%d vs %s/%d",
					seed, pol, ra.PlanKind, ra.Replans, rb.PlanKind, rb.Replans)
			}
		}
	}
}

// Three-tier smoke: the full Tahoe runtime on a DRAM+CXL+NVM machine
// must complete, produce a "tier" plan, migrate data, and beat the same
// machine with the middle tier absent whenever DRAM alone is scarce.
func TestThreeTierTahoe(t *testing.T) {
	seeds := []int64{2, 5, 8}
	var planKinds []string
	defer func() { testHook = nil }()
	for _, seed := range seeds {
		g := equivGraph(seed)

		with := DefaultConfig(mem.DRAMCXLNVM(16*mem.MB, 64*mem.MB))
		with.Workers = 4
		testHook = func(r *runner) {
			planKinds = append(planKinds, r.plan.kind)
			if r.st.NumTiers() != 3 {
				t.Errorf("seed %d: runner saw %d tiers", seed, r.st.NumTiers())
			}
		}
		rw, err := Run(g, with)
		if err != nil {
			t.Fatalf("seed %d 3-tier: %v", seed, err)
		}
		testHook = nil

		without := DefaultConfig(mem.NewHMS(mem.DRAM(), mem.OptanePM(), 16*mem.MB))
		without.Workers = 4
		ro, err := Run(g, without)
		if err != nil {
			t.Fatalf("seed %d 2-tier: %v", seed, err)
		}
		if rw.Time <= 0 || rw.Tasks != len(g.Tasks) {
			t.Fatalf("seed %d: bad 3-tier result %+v", seed, rw)
		}
		// A 64 MB CXL tier under a 16 MB DRAM cannot hurt: every placement
		// the two-tier machine can express is still available. Allow a hair
		// of slack for different plan trajectories.
		if rw.Time > ro.Time*1.05 {
			t.Errorf("seed %d: 3-tier %.6fs worse than 2-tier %.6fs", seed, rw.Time, ro.Time)
		}
	}
	sawTier := false
	for _, k := range planKinds {
		if k == "tier" {
			sawTier = true
		}
	}
	if !sawTier {
		t.Errorf("no 3-tier run produced a tier plan (kinds: %v)", planKinds)
	}
}

// A three-tier machine whose middle tier has zero capacity must behave
// sanely (no panics, all tasks complete) and closely track the plain
// two-tier machine.
func TestThreeTierZeroMiddle(t *testing.T) {
	g := equivGraph(4)
	cfg := DefaultConfig(mem.DRAMCXLNVM(32*mem.MB, 0))
	cfg.Workers = 2
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != len(g.Tasks) {
		t.Fatalf("completed %d of %d tasks", res.Tasks, len(g.Tasks))
	}
}

// Exercise every policy on the three-tier machine: all must complete.
func TestThreeTierAllPolicies(t *testing.T) {
	g := equivGraph(7)
	for _, pol := range []Policy{NVMOnly, DRAMOnly, FirstTouch, XMem, HWCache, PhaseBased, Tahoe} {
		cfg := DefaultConfig(mem.DRAMCXLNVM(24*mem.MB, 48*mem.MB))
		cfg.Policy = pol
		cfg.Workers = 2
		res, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Tasks != len(g.Tasks) || res.Time <= 0 {
			t.Fatalf("%v: bad result %+v", pol, res)
		}
	}
}

// HMS values share their tier slice, so every writer inside a run must
// copy it before editing. The DRAM-only capacity override and the fault
// injector's degraded view are the run's two writers: runs exercising
// them on a two- and a three-tier machine must leave the caller's tier
// list exactly as it was.
func TestRunLeavesCallerTiersUnchanged(t *testing.T) {
	g := equivGraph(3)
	for _, h := range []mem.HMS{
		mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 32*mem.MB),
		mem.DRAMCXLNVM(24*mem.MB, 48*mem.MB),
	} {
		want := append([]mem.TierSpec(nil), h.Tiers...)
		cfg := DefaultConfig(h)
		cfg.Workers = 2
		clean, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Windows inside the fault-free makespan, so both are live while
		// tasks start and the degraded view is built.
		end, fast := clean.Time, h.Fastest()
		faults := &fault.Schedule{Events: []fault.Event{
			{At: 0.1 * end, Until: 0.5 * end, Kind: fault.Degrade, Tier: fast, Factor: 4},
			{At: 0.3 * end, Until: 0.7 * end, Kind: fault.TierOutage, Tier: fast},
		}}
		for _, c := range []struct {
			name   string
			pol    Policy
			faults *fault.Schedule
		}{
			{"dram-only", DRAMOnly, nil},
			{"tahoe-faults", Tahoe, faults},
			{"dram-only-faults", DRAMOnly, faults},
		} {
			cfg := DefaultConfig(h)
			cfg.Policy, cfg.Faults, cfg.Workers = c.pol, c.faults, 2
			res, err := Run(g, cfg)
			if err != nil {
				t.Fatalf("%d tiers %s: %v", h.NumTiers(), c.name, err)
			}
			if c.faults != nil && res.FaultEvents != len(c.faults.Events) {
				t.Errorf("%d tiers %s: %d fault windows fired, want %d",
					h.NumTiers(), c.name, res.FaultEvents, len(c.faults.Events))
			}
			if !reflect.DeepEqual(cfg.HMS.Tiers, want) {
				t.Errorf("%d tiers %s: run edited the caller's tiers:\ngot  %+v\nwant %+v",
					h.NumTiers(), c.name, cfg.HMS.Tiers, want)
			}
		}
	}
}
