package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeviceSpecValidate(t *testing.T) {
	for _, d := range []DeviceSpec{DRAM(), STTRAM(), PCRAM(), ReRAM(), OptanePM()} {
		if err := d.Validate(); err != nil {
			t.Errorf("preset %s: %v", d.Name, err)
		}
	}
	bad := []DeviceSpec{
		{},
		{Name: "x", ReadLatNS: 0, WriteLatNS: 1, ReadBW: 1, WriteBW: 1},
		{Name: "x", ReadLatNS: 1, WriteLatNS: 1, ReadBW: 0, WriteBW: 1},
		{Name: "x", ReadLatNS: 1, WriteLatNS: -1, ReadBW: 1, WriteBW: 1},
		// NaN passes every "x <= 0" test.
		{Name: "x", ReadLatNS: math.NaN(), WriteLatNS: 1, ReadBW: 1, WriteBW: 1},
		{Name: "x", ReadLatNS: 1, WriteLatNS: math.NaN(), ReadBW: 1, WriteBW: 1},
		{Name: "x", ReadLatNS: 1, WriteLatNS: 1, ReadBW: math.NaN(), WriteBW: 1},
		{Name: "x", ReadLatNS: 1, WriteLatNS: 1, ReadBW: 1, WriteBW: math.NaN()},
		// +Inf passes every "x > 0" test; an infinite latency or bandwidth
		// would make the device free to the timing model.
		{Name: "x", ReadLatNS: math.Inf(1), WriteLatNS: 1, ReadBW: 1, WriteBW: 1},
		{Name: "x", ReadLatNS: 1, WriteLatNS: math.Inf(1), ReadBW: 1, WriteBW: 1},
		{Name: "x", ReadLatNS: 1, WriteLatNS: 1, ReadBW: math.Inf(1), WriteBW: 1},
		{Name: "x", ReadLatNS: 1, WriteLatNS: 1, ReadBW: 1, WriteBW: math.Inf(1)},
		NVMLatency(math.Inf(1)),
		NVMBandwidth(math.Inf(1)),
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
}

func TestScaling(t *testing.T) {
	half := NVMBandwidth(0.5)
	if half.ReadBW != DRAM().ReadBW/2 || half.WriteBW != DRAM().WriteBW/2 {
		t.Fatalf("NVMBandwidth(0.5) bandwidths wrong: %+v", half)
	}
	if half.ReadLatNS != DRAM().ReadLatNS {
		t.Fatalf("NVMBandwidth must not change latency")
	}
	quad := NVMLatency(4)
	if quad.ReadLatNS != 40 || quad.WriteLatNS != 40 {
		t.Fatalf("NVMLatency(4) latencies wrong: %+v", quad)
	}
	if quad.ReadBW != DRAM().ReadBW {
		t.Fatalf("NVMLatency must not change bandwidth")
	}
}

func TestScalePreservesOriginal(t *testing.T) {
	d := DRAM()
	_ = ScaleBW(d, 0.25, "x")
	if d.ReadBW != DRAM().ReadBW {
		t.Fatal("ScaleBW mutated its input")
	}
}

func TestLatencyConversions(t *testing.T) {
	d := DRAM()
	if got := d.ReadLatSec(); math.Abs(got-10e-9) > 1e-18 {
		t.Fatalf("ReadLatSec = %g, want 10e-9", got)
	}
}

func TestTier(t *testing.T) {
	if InDRAM.String() != "DRAM" || InNVM.String() != "NVM" {
		t.Fatal("tier names wrong")
	}
}

func TestHMSValidateAndAccessors(t *testing.T) {
	h := NewHMS(DRAM(), NVMBandwidth(0.5), 256*MB)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Device(InDRAM).Name != "DRAM" {
		t.Fatal("Device(InDRAM) wrong")
	}
	if h.Device(InNVM).Name != "NVM(0.5xBW)" {
		t.Fatalf("Device(InNVM) = %q", h.Device(InNVM).Name)
	}
	if h.Capacity(InDRAM) != 256*MB {
		t.Fatal("DRAM capacity wrong")
	}
	if h.Capacity(InNVM) <= h.Capacity(InDRAM) {
		t.Fatal("NVM capacity should dwarf DRAM")
	}

	h.CopyBW = 0
	if err := h.Validate(); err == nil {
		t.Fatal("zero copy bandwidth validated")
	}
}

func TestDefaultCopyBW(t *testing.T) {
	// Promotion path is paced by NVM read bandwidth when it is the slower
	// side, derated by 20%.
	got := DefaultCopyBW(DRAM(), NVMBandwidth(0.5))
	want := 5e9 * 0.8
	if math.Abs(got-want) > 1 {
		t.Fatalf("DefaultCopyBW = %g, want %g", got, want)
	}
	// When NVM reads faster than DRAM writes, DRAM write bandwidth paces.
	fast := DRAM()
	fast.ReadBW = 100e9
	got = DefaultCopyBW(DRAM(), fast)
	want = 9e9 * 0.8
	if math.Abs(got-want) > 1 {
		t.Fatalf("DefaultCopyBW fast-NVM = %g, want %g", got, want)
	}
}

func TestDRAMOnly(t *testing.T) {
	h := DRAMOnly()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	nvm, dram := h.Device(InNVM), h.Device(InDRAM)
	if nvm.ReadBW != dram.ReadBW || nvm.ReadLatNS != dram.ReadLatNS {
		t.Fatal("DRAMOnly NVM tier must perform like DRAM")
	}
	if h.Capacity(InDRAM) < 1<<40 {
		t.Fatal("DRAMOnly must have effectively unbounded DRAM")
	}
}

func TestScaleBWPositivity(t *testing.T) {
	// Property: scaling by any positive factor in [1e-9, 1e9] keeps specs
	// valid. The factor is drawn log-uniformly over that range so every
	// draw checks the property; unbounded factors overflow the scaled
	// spec to +Inf, which Validate rejects by design.
	check := func(u uint32) bool {
		f := math.Pow(10, -9+18*float64(u)/math.MaxUint32)
		return ScaleBW(DRAM(), f, "s").Validate() == nil &&
			ScaleLat(DRAM(), f, "s").Validate() == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
