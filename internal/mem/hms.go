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

// HMS describes a heterogeneous memory system: an ordered list of tiers
// (slowest first, fastest last), each with its own device spec and
// capacity, plus the copy channel's bandwidth. The paper's DRAM+NVM
// machine is the two-tier case. HMS values are copied freely and share
// their Tiers backing array, so code that edits a tier copies the slice
// first.
type HMS struct {
	// Tiers lists the machine's tiers slowest to fastest: 2..MaxTiers
	// entries.
	Tiers []TierSpec
	// CopyBW is the sustained bandwidth, in bytes/second, of the helper
	// thread's full promotion path (tier 0 -> fastest) memcpy, limited by
	// the slower side of the pair. CopyBWBetween derives per-pair
	// bandwidths from it.
	CopyBW float64
}

// NumTiers returns how many tiers the machine has.
func (h HMS) NumTiers() int { return len(h.Tiers) }

// Fastest returns the fastest tier's id, NumTiers()-1. For the two-tier
// machine that is InDRAM.
func (h HMS) Fastest() Tier { return Tier(len(h.Tiers) - 1) }

// Device returns the spec for a tier.
func (h HMS) Device(t Tier) DeviceSpec { return h.Tiers[t].Device }

// Capacity returns the byte capacity of a tier.
func (h HMS) Capacity(t Tier) int64 { return h.Tiers[t].Capacity }

// CopyBWBetween returns the sustained migration bandwidth from tier
// `from` to tier `to`, in bytes/second. A two-tier machine has a single
// configured copy channel, CopyBW, charged on both directions; N-tier
// machines derive each pair's bandwidth from the slower side of
// the pair (source read vs destination write), derated 20% for copy
// overheads, exactly as DefaultCopyBW does for the two-tier pair.
func (h HMS) CopyBWBetween(from, to Tier) float64 {
	if h.NumTiers() == 2 {
		return h.CopyBW
	}
	return DefaultCopyBW(h.Device(to), h.Device(from))
}

// Validate reports an error for non-physical configurations: the tier
// count outside 2..MaxTiers, an invalid device, a non-positive tier-0
// or negative upper-tier capacity, or a non-positive copy bandwidth.
func (h HMS) Validate() error {
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
	if !(h.CopyBW > 0) {
		return fmt.Errorf("mem: non-positive or NaN copy bandwidth %g", h.CopyBW)
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

// NewHMS builds the two-tier DRAM+NVM machine from two device specs and
// a DRAM capacity, with an effectively unbounded NVM tier and the
// default copy bandwidth.
func NewHMS(dram, nvm DeviceSpec, dramCap int64) HMS {
	return NewTieredHMS(
		TierSpec{Device: nvm, Capacity: 1 << 44}, // 16 TB: never the binding constraint
		TierSpec{Device: dram, Capacity: dramCap},
	)
}

// DRAMOnly returns an HMS whose "NVM" is a second DRAM device and whose
// DRAM capacity is unbounded: the upper-bound configuration every
// experiment normalizes against.
func DRAMOnly() HMS {
	d := DRAM()
	return NewHMS(d, d, 1<<44)
}

// NewTieredHMS builds an N-tier HMS from specs ordered slowest to
// fastest. CopyBW is the full promotion path's bandwidth (tier 0 ->
// fastest), derived as DefaultCopyBW does for the two-tier pair.
func NewTieredHMS(tiers ...TierSpec) HMS {
	if len(tiers) < 2 {
		panic("mem: NewTieredHMS needs at least 2 tiers")
	}
	slow, fast := tiers[0], tiers[len(tiers)-1]
	return HMS{Tiers: tiers, CopyBW: DefaultCopyBW(fast.Device, slow.Device)}
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
