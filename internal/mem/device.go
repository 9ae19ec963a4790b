// Package mem models the memory devices of a heterogeneous memory system
// (HMS): classically a small, fast DRAM paired with a large, slow
// non-volatile memory (NVM), generalized to an ordered list of N tiers
// (slowest first, fastest last — e.g. Optane, CXL-attached DRAM, local
// DRAM) via HMS.Tiers. Device characteristics — read/write latency and
// read/write bandwidth, which NVM technologies exhibit asymmetrically —
// follow the NVMDB survey and Optane PMM measurement numbers used
// throughout the NVM-for-HPC literature.
//
// All latencies are expressed in nanoseconds and all bandwidths in bytes
// per second, as float64, so that they compose directly with the virtual
// clock of the simulation engine (package sim), which counts seconds.
package mem

import (
	"fmt"
	"math"
)

// CacheLineSize is the transfer granularity between CPU caches and main
// memory. Every counted load or store moves one cache line.
const CacheLineSize = 64

// Common byte sizes.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// DeviceSpec describes one memory device's performance envelope.
// Read and write are specified separately because NVM technologies have
// strongly asymmetric read/write performance (writes up to 50x slower in
// latency and 8x in bandwidth for PCRAM-class devices).
type DeviceSpec struct {
	// Name identifies the device in reports, e.g. "DRAM" or "NVM(1/2BW)".
	Name string
	// ReadLatNS and WriteLatNS are per-cache-line access latencies in
	// nanoseconds, as seen by a dependent (non-overlapped) access stream.
	ReadLatNS  float64
	WriteLatNS float64
	// ReadBW and WriteBW are peak sequential bandwidths in bytes/second.
	ReadBW  float64
	WriteBW float64
	// ReadPJPerByte and WritePJPerByte are dynamic access energies;
	// StaticMWPerGB is standby power per installed capacity (DRAM pays
	// refresh; NVM is near-zero — the power argument for NVM main
	// memory). Literature order-of-magnitude values.
	ReadPJPerByte  float64
	WritePJPerByte float64
	StaticMWPerGB  float64
}

// Validate reports an error if the spec is not physically meaningful:
// every latency and bandwidth must be positive and finite. An infinite
// latency or bandwidth would price the device's traffic at zero or
// uncapped service, which the timing model reads as free.
func (d DeviceSpec) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("mem: device spec has empty name")
	}
	if !positiveFinite(d.ReadLatNS) || !positiveFinite(d.WriteLatNS) {
		return fmt.Errorf("mem: device %q has non-positive or non-finite latency", d.Name)
	}
	if !positiveFinite(d.ReadBW) || !positiveFinite(d.WriteBW) {
		return fmt.Errorf("mem: device %q has non-positive or non-finite bandwidth", d.Name)
	}
	return nil
}

// positiveFinite reports 0 < x < +Inf; NaN fails both comparisons.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// ReadLatSec and WriteLatSec convert the nanosecond latencies to seconds.
func (d DeviceSpec) ReadLatSec() float64  { return d.ReadLatNS * 1e-9 }
func (d DeviceSpec) WriteLatSec() float64 { return d.WriteLatNS * 1e-9 }

// Derate returns a copy of d slowed by factor f >= 1: bandwidths divided
// by f, latencies multiplied by f. Energy coefficients are unchanged (a
// throttled device still moves the same bytes). Fault injection uses it
// to build the degraded device view a sagging tier presents to the
// demand model; Derate(1) returns d exactly.
func (d DeviceSpec) Derate(f float64) DeviceSpec {
	if f == 1 {
		return d
	}
	d.ReadBW /= f
	d.WriteBW /= f
	d.ReadLatNS *= f
	d.WriteLatNS *= f
	return d
}

// ScaleBW returns a copy of d with both bandwidths multiplied by f.
// ScaleBW(d, 0.5) models "1/2 DRAM bandwidth" NVM configurations.
func ScaleBW(d DeviceSpec, f float64, name string) DeviceSpec {
	d.ReadBW *= f
	d.WriteBW *= f
	d.Name = name
	return d
}

// ScaleLat returns a copy of d with both latencies multiplied by f.
// ScaleLat(d, 4) models "4x DRAM latency" NVM configurations.
func ScaleLat(d DeviceSpec, f float64, name string) DeviceSpec {
	d.ReadLatNS *= f
	d.WriteLatNS *= f
	d.Name = name
	return d
}

// DRAM returns the baseline DRAM device used by every experiment:
// 10 ns access latency, 10 GB/s read and 9 GB/s write bandwidth
// (DDR-class numbers from the NVMDB survey table).
func DRAM() DeviceSpec {
	return DeviceSpec{
		Name:           "DRAM",
		ReadLatNS:      10,
		WriteLatNS:     10,
		ReadBW:         10e9,
		WriteBW:        9e9,
		ReadPJPerByte:  15,
		WritePJPerByte: 15,
		StaticMWPerGB:  110, // refresh + standby
	}
}

// STTRAM returns an STT-RAM device spec (ITRS'13 projection):
// 60/80 ns read/write latency, 800/600 MB/s read/write bandwidth.
func STTRAM() DeviceSpec {
	return DeviceSpec{
		Name:           "STT-RAM",
		ReadLatNS:      60,
		WriteLatNS:     80,
		ReadBW:         800e6,
		WriteBW:        600e6,
		ReadPJPerByte:  20,
		WritePJPerByte: 80,
		StaticMWPerGB:  2,
	}
}

// PCRAM returns a phase-change memory device spec (mid-range of the NVMDB
// survey): 100/1000 ns read/write latency, 500/300 MB/s bandwidth.
// PCRAM is the most read/write-asymmetric preset and is the device on
// which distinguishing loads from stores matters most.
func PCRAM() DeviceSpec {
	return DeviceSpec{
		Name:           "PCRAM",
		ReadLatNS:      100,
		WriteLatNS:     1000,
		ReadBW:         500e6,
		WriteBW:        300e6,
		ReadPJPerByte:  25,
		WritePJPerByte: 150,
		StaticMWPerGB:  1,
	}
}

// ReRAM returns a resistive-RAM device spec (mid-range of the NVMDB
// survey): 300/3000 ns read/write latency, 60/5 MB/s bandwidth.
func ReRAM() DeviceSpec {
	return DeviceSpec{
		Name:           "ReRAM",
		ReadLatNS:      300,
		WriteLatNS:     3000,
		ReadBW:         60e6,
		WriteBW:        5e6,
		ReadPJPerByte:  30,
		WritePJPerByte: 200,
		StaticMWPerGB:  1,
	}
}

// OptanePM returns an Intel Optane DC PMM device spec (measured numbers:
// ~300/150 ns read/write latency, 3.9/1.3 GB/s read/write bandwidth for
// random access patterns).
func OptanePM() DeviceSpec {
	return DeviceSpec{
		Name:           "OptanePM",
		ReadLatNS:      300,
		WriteLatNS:     150,
		ReadBW:         3.9e9,
		WriteBW:        1.3e9,
		ReadPJPerByte:  60,
		WritePJPerByte: 120,
		StaticMWPerGB:  4,
	}
}

// CXL returns a CXL-attached DRAM expander device spec, calibrated
// between the local-DRAM and Optane bands: link traversal adds roughly
// an order of magnitude of latency over local DRAM while bandwidth stays
// DRAM-class (measured CXL 1.1 expanders land near 100-200 ns and
// 50-70% of a local channel's bandwidth). The medium is DRAM, so access
// energy matches DRAM and standby power pays refresh.
func CXL() DeviceSpec {
	return DeviceSpec{
		Name:           "CXL",
		ReadLatNS:      100,
		WriteLatNS:     100,
		ReadBW:         6e9,
		WriteBW:        5e9,
		ReadPJPerByte:  20,
		WritePJPerByte: 20,
		StaticMWPerGB:  110,
	}
}

// NVMBandwidth returns an NVM spec with DRAM latency but bandwidth scaled
// to frac of DRAM's (the "1/2 DRAM BW" family of emulated configurations).
func NVMBandwidth(frac float64) DeviceSpec {
	d := ScaleBW(DRAM(), frac, fmt.Sprintf("NVM(%gxBW)", frac))
	// Emulated NVM still has NVM energy character.
	d.ReadPJPerByte, d.WritePJPerByte, d.StaticMWPerGB = 25, 60, 2
	return d
}

// NVMLatency returns an NVM spec with DRAM bandwidth but latency scaled
// by mult (the "4x DRAM latency" family of emulated configurations).
func NVMLatency(mult float64) DeviceSpec {
	d := ScaleLat(DRAM(), mult, fmt.Sprintf("NVM(%gxLAT)", mult))
	// Emulated NVM still has NVM energy character.
	d.ReadPJPerByte, d.WritePJPerByte, d.StaticMWPerGB = 25, 60, 2
	return d
}
