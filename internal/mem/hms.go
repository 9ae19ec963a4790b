package mem

import "fmt"

// Tier identifies which device of the HMS a piece of data lives on.
// Tiers are ordered slowest to fastest: tier 0 is the large, slow device
// every object starts on, and tier NumTiers()-1 is the scarce, fast one.
// The two-tier constants InNVM and InDRAM are the N=2 special case of
// that ordering.
type Tier int

const (
	// InNVM is the default tier: large, slow, non-volatile.
	InNVM Tier = iota
	// InDRAM is the scarce, fast tier.
	InDRAM
)

// String returns "NVM" and "DRAM" for the two classic tiers, and "T<n>"
// for tiers beyond them.
func (t Tier) String() string {
	switch t {
	case InNVM:
		return "NVM"
	case InDRAM:
		return "DRAM"
	}
	return fmt.Sprintf("T%d", int(t))
}

// MaxTiers bounds how many tiers an HMS may have. The timing model's
// per-tier demand accumulators are fixed-size arrays of this length, so
// task-demand computation stays allocation-free on the hot path.
const MaxTiers = 4

// TierSpec describes one tier of an N-tier HMS: its device envelope and
// how many bytes of application data it may hold.
type TierSpec struct {
	Device   DeviceSpec
	Capacity int64
}

// HMS describes a heterogeneous memory system. The classic form is the
// two-device DRAM+NVM pair below; setting Tiers generalizes it to an
// ordered list of N tiers (slowest first, fastest last), each with its
// own device spec and capacity. When Tiers is set, the legacy DRAM/NVM
// fields mirror the fastest and slowest tiers so that code consuming the
// two-tier view keeps working.
type HMS struct {
	DRAM DeviceSpec
	NVM  DeviceSpec
	// DRAMCapacity bounds how many bytes of application data objects may
	// reside in DRAM; the paper's experiments use 128 MB - 512 MB.
	DRAMCapacity int64
	// NVMCapacity bounds NVM residency; effectively unbounded in practice.
	NVMCapacity int64
	// CopyBW is the sustained bandwidth, in bytes/second, of the helper
	// thread's DRAM<->NVM memcpy. It is limited by the slower of the two
	// devices on the relevant direction. With N > 2 tiers it is the
	// bandwidth of the full promotion path (tier 0 -> fastest);
	// CopyBWBetween derives per-pair bandwidths from it.
	CopyBW float64
	// Tiers, when non-nil, lists the machine's tiers slowest to fastest.
	// nil means the classic two-tier DRAM+NVM machine. A two-element
	// Tiers is required to be exactly equivalent to the classic form
	// (same devices, same capacities) — see NewTieredHMS.
	Tiers []TierSpec
}

// NumTiers returns how many tiers the machine has (2 for the classic
// DRAM+NVM form).
func (h HMS) NumTiers() int {
	if h.Tiers != nil {
		return len(h.Tiers)
	}
	return 2
}

// Fastest returns the fastest tier's id, NumTiers()-1. For the classic
// two-tier machine that is InDRAM.
func (h HMS) Fastest() Tier { return Tier(h.NumTiers() - 1) }

// Device returns the spec for a tier.
func (h HMS) Device(t Tier) DeviceSpec {
	if h.Tiers != nil {
		return h.Tiers[t].Device
	}
	if t == InDRAM {
		return h.DRAM
	}
	return h.NVM
}

// Capacity returns the byte capacity of a tier.
func (h HMS) Capacity(t Tier) int64 {
	if h.Tiers != nil {
		return h.Tiers[t].Capacity
	}
	if t == InDRAM {
		return h.DRAMCapacity
	}
	return h.NVMCapacity
}

// CopyBWBetween returns the sustained migration bandwidth from tier
// `from` to tier `to`, in bytes/second. The classic two-tier machine has
// a single configured copy channel, CopyBW, charged on both directions;
// N-tier machines derive each pair's bandwidth from the slower side of
// the pair (source read vs destination write), derated 20% for copy
// overheads, exactly as DefaultCopyBW does for the two-tier pair.
func (h HMS) CopyBWBetween(from, to Tier) float64 {
	if h.NumTiers() == 2 {
		return h.CopyBW
	}
	return DefaultCopyBW(h.Device(to), h.Device(from))
}

// Validate reports an error for non-physical configurations.
func (h HMS) Validate() error {
	if err := h.DRAM.Validate(); err != nil {
		return err
	}
	if err := h.NVM.Validate(); err != nil {
		return err
	}
	if h.DRAMCapacity < 0 {
		return fmt.Errorf("mem: negative DRAM capacity %d", h.DRAMCapacity)
	}
	if h.NVMCapacity <= 0 {
		return fmt.Errorf("mem: non-positive NVM capacity %d", h.NVMCapacity)
	}
	if !(h.CopyBW > 0) {
		return fmt.Errorf("mem: non-positive or NaN copy bandwidth %g", h.CopyBW)
	}
	if h.Tiers != nil {
		if len(h.Tiers) < 2 || len(h.Tiers) > MaxTiers {
			return fmt.Errorf("mem: %d tiers configured; need 2..%d", len(h.Tiers), MaxTiers)
		}
		for i, ts := range h.Tiers {
			if err := ts.Device.Validate(); err != nil {
				return fmt.Errorf("mem: tier %d: %w", i, err)
			}
			if i == 0 {
				if ts.Capacity <= 0 {
					return fmt.Errorf("mem: non-positive tier-0 capacity %d", ts.Capacity)
				}
			} else if ts.Capacity < 0 {
				return fmt.Errorf("mem: negative tier-%d capacity %d", i, ts.Capacity)
			}
		}
	}
	return nil
}

// DefaultCopyBW derives a copy bandwidth from the two device specs: a
// DRAM->NVM or NVM->DRAM memcpy is paced by the slower side of the pair
// (NVM write for demotion, NVM read for promotion); we use the promotion
// path since promotions dominate, derated by 20% for copy overheads.
func DefaultCopyBW(dram, nvm DeviceSpec) float64 {
	bw := nvm.ReadBW
	if dram.WriteBW < bw {
		bw = dram.WriteBW
	}
	return bw * 0.8
}

// NewHMS builds an HMS from two device specs and a DRAM capacity, filling
// in an effectively unbounded NVM capacity and the default copy bandwidth.
func NewHMS(dram, nvm DeviceSpec, dramCap int64) HMS {
	return HMS{
		DRAM:         dram,
		NVM:          nvm,
		DRAMCapacity: dramCap,
		NVMCapacity:  1 << 44, // 16 TB: never the binding constraint
		CopyBW:       DefaultCopyBW(dram, nvm),
	}
}

// DRAMOnly returns an HMS whose "NVM" is a second DRAM device and whose
// DRAM capacity is unbounded: the upper-bound configuration every
// experiment normalizes against.
func DRAMOnly() HMS {
	d := DRAM()
	h := NewHMS(d, d, 1<<44)
	h.NVM.Name = "DRAM"
	return h
}

// NewTieredHMS builds an N-tier HMS from specs ordered slowest to
// fastest. The legacy two-device fields mirror the slowest and fastest
// tiers so code consuming the classic view stays meaningful, and CopyBW
// is the full promotion path's bandwidth (tier 0 -> fastest). A
// two-element tier list yields a machine equivalent to
// NewHMS(fast, slow, fastCap) with the slow tier's capacity bounded.
func NewTieredHMS(tiers ...TierSpec) HMS {
	if len(tiers) < 2 {
		panic("mem: NewTieredHMS needs at least 2 tiers")
	}
	slow, fast := tiers[0], tiers[len(tiers)-1]
	return HMS{
		DRAM:         fast.Device,
		NVM:          slow.Device,
		DRAMCapacity: fast.Capacity,
		NVMCapacity:  slow.Capacity,
		CopyBW:       DefaultCopyBW(fast.Device, slow.Device),
		Tiers:        tiers,
	}
}

// DRAMCXLNVM returns the three-tier DRAM + CXL-attached DRAM + Optane
// machine used by experiment E18: local DRAM on top, a CXL memory
// expander in the middle, Optane PMM at the bottom (effectively
// unbounded). Capacities size the two upper tiers.
func DRAMCXLNVM(dramCap, cxlCap int64) HMS {
	return NewTieredHMS(
		TierSpec{Device: OptanePM(), Capacity: 1 << 44},
		TierSpec{Device: CXL(), Capacity: cxlCap},
		TierSpec{Device: DRAM(), Capacity: dramCap},
	)
}
