package mem

import (
	"math"
	"testing"
)

// A two-element NewTieredHMS must equal the NewHMS form exactly: same
// devices, same capacities, same copy bandwidth through the accessors.
func TestNewTieredHMSTwoTierMirrorsClassic(t *testing.T) {
	classic := NewHMS(DRAM(), OptanePM(), 128*MB)
	tiered := NewTieredHMS(
		TierSpec{Device: OptanePM(), Capacity: 1 << 44},
		TierSpec{Device: DRAM(), Capacity: 128 * MB},
	)
	if err := tiered.Validate(); err != nil {
		t.Fatal(err)
	}
	if tiered.NumTiers() != 2 || tiered.Fastest() != InDRAM {
		t.Fatalf("NumTiers=%d Fastest=%v", tiered.NumTiers(), tiered.Fastest())
	}
	if math.Float64bits(tiered.CopyBW) != math.Float64bits(classic.CopyBW) {
		t.Errorf("CopyBW %v != classic %v", tiered.CopyBW, classic.CopyBW)
	}
	for _, tier := range []Tier{InNVM, InDRAM} {
		if tiered.Device(tier) != classic.Device(tier) {
			t.Errorf("Device(%v) differs", tier)
		}
		if tiered.Capacity(tier) != classic.Capacity(tier) {
			t.Errorf("Capacity(%v) differs", tier)
		}
	}
	// Two-tier machines use the single configured copy channel in both
	// directions, tiered or not.
	for _, pair := range [][2]Tier{{InNVM, InDRAM}, {InDRAM, InNVM}} {
		if bw := tiered.CopyBWBetween(pair[0], pair[1]); math.Float64bits(bw) != math.Float64bits(classic.CopyBW) {
			t.Errorf("CopyBWBetween(%v,%v) = %v, want %v", pair[0], pair[1], bw, classic.CopyBW)
		}
	}
}

func TestDRAMCXLNVM(t *testing.T) {
	h := DRAMCXLNVM(64*MB, 256*MB)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumTiers() != 3 || h.Fastest() != Tier(2) {
		t.Fatalf("NumTiers=%d Fastest=%v", h.NumTiers(), h.Fastest())
	}
	if h.Device(0).Name != "OptanePM" || h.Device(1).Name != "CXL" || h.Device(2).Name != "DRAM" {
		t.Errorf("tier devices %q/%q/%q", h.Device(0).Name, h.Device(1).Name, h.Device(2).Name)
	}
	if h.Capacity(2) != 64*MB || h.Capacity(1) != 256*MB {
		t.Errorf("capacities %d/%d", h.Capacity(2), h.Capacity(1))
	}
	// Pairwise copy bandwidth: each pair is paced by its slower side and
	// derated like the classic default; adjacent-tier copies beat the full
	// NVM->DRAM path when the middle tier is faster than NVM.
	full := h.CopyBWBetween(0, 2)
	mid := h.CopyBWBetween(1, 2)
	if full <= 0 || mid <= 0 {
		t.Fatalf("non-positive pair bandwidth: %v %v", full, mid)
	}
	if mid <= full {
		t.Errorf("CXL->DRAM bandwidth %v should beat NVM->DRAM %v", mid, full)
	}
	if math.Float64bits(full) != math.Float64bits(h.CopyBW) {
		t.Errorf("full-path pair bandwidth %v != CopyBW %v", full, h.CopyBW)
	}
}

func TestTieredValidateBounds(t *testing.T) {
	base := DRAMCXLNVM(64*MB, 128*MB)

	if err := (HMS{}).Validate(); err == nil {
		t.Errorf("zero HMS validated; want a tier-count error")
	}

	tooMany := base
	tooMany.Tiers = make([]TierSpec, MaxTiers+1)
	for i := range tooMany.Tiers {
		tooMany.Tiers[i] = TierSpec{Device: DRAM(), Capacity: MB}
	}
	if err := tooMany.Validate(); err == nil {
		t.Errorf("%d tiers validated; want error", MaxTiers+1)
	}

	zeroBase := base
	zeroBase.Tiers = append([]TierSpec(nil), base.Tiers...)
	zeroBase.Tiers[0].Capacity = 0
	if err := zeroBase.Validate(); err == nil {
		t.Errorf("zero tier-0 capacity validated; want error")
	}

	negMid := base
	negMid.Tiers = append([]TierSpec(nil), base.Tiers...)
	negMid.Tiers[1].Capacity = -1
	if err := negMid.Validate(); err == nil {
		t.Errorf("negative middle-tier capacity validated; want error")
	}

	// A zero middle tier is legal: it degenerates to the two-tier machine
	// with an unusable tier in between.
	zeroMid := base
	zeroMid.Tiers = append([]TierSpec(nil), base.Tiers...)
	zeroMid.Tiers[1].Capacity = 0
	if err := zeroMid.Validate(); err != nil {
		t.Errorf("zero middle-tier capacity rejected: %v", err)
	}
}

func TestTierString(t *testing.T) {
	for _, tc := range []struct {
		tier Tier
		want string
	}{{InNVM, "NVM"}, {InDRAM, "DRAM"}, {Tier(2), "T2"}, {Tier(3), "T3"}} {
		if got := tc.tier.String(); got != tc.want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tc.tier), got, tc.want)
		}
	}
}
