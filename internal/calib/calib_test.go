package calib

import (
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/prof"
)

func TestCalibrateCorrectsSamplingBias(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 256*mem.MB)
	pc := prof.DefaultConfig()
	f, err := Calibrate(h, pc)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling undercounts by the bias factor, so both constants should
	// sit near 1/bias.
	want := 1 / pc.Bias
	if math.Abs(f.CFBw-want) > 0.1*want {
		t.Errorf("CFBw = %g, want about %g", f.CFBw, want)
	}
	if math.Abs(f.CFLat-want) > 0.1*want {
		t.Errorf("CFLat = %g, want about %g", f.CFLat, want)
	}
}

func TestCalibratePeakBandwidth(t *testing.T) {
	h := mem.DRAMOnly()
	f, err := Calibrate(h, prof.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// STREAM measured against DRAM: peak between write and read bandwidth.
	if f.PeakBW < h.Device(mem.InDRAM).WriteBW*0.9 || f.PeakBW > h.Device(mem.InDRAM).ReadBW*1.1 {
		t.Fatalf("PeakBW = %g, want near %g", f.PeakBW, h.Device(mem.InDRAM).ReadBW)
	}
}

func TestCalibrateUnbiasedSampling(t *testing.T) {
	h := mem.DRAMOnly()
	pc := prof.DefaultConfig()
	pc.Bias = 1
	pc.Jitter = 0
	f, err := Calibrate(h, pc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.CFBw-1) > 0.02 || math.Abs(f.CFLat-1) > 0.02 {
		t.Fatalf("perfect sampling should calibrate to 1: %+v", f)
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.OptanePM(), 256*mem.MB)
	a, err := Calibrate(h, prof.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Calibrate(h, prof.DefaultConfig())
	if a != b {
		t.Fatalf("calibration not deterministic: %+v vs %+v", a, b)
	}
}
