package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/feedback"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// feedbackMachines pairs the classic two-tier machine with the
// three-tier DRAM+CXL+NVM machine, so the bit-identity contract covers
// both planner families (global/local pair and the N-tier knapsack).
func feedbackMachines() map[string]mem.HMS {
	return map[string]mem.HMS{
		"2-tier": mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 64*mem.MB),
		"3-tier": mem.NewTieredHMS(
			mem.TierSpec{Device: mem.NVMBandwidth(0.5), Capacity: 1 << 44},
			mem.TierSpec{Device: mem.CXL(), Capacity: 32 * mem.MB},
			mem.TierSpec{Device: mem.DRAM(), Capacity: 32 * mem.MB},
		),
	}
}

func traceSHA(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	h := sha256.New()
	if err := tr.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFeedbackNoOpWithoutModelError is the tentpole's hard contract,
// the feedback analogue of TestNilFaultScheduleIsBitIdentical: with
// feedback disabled — and, equally, enabled under zero model error —
// every policy's run must reproduce the seed behaviour bit-for-bit.
// "Zero model error" means exact profiles and the standard calibration:
// the model's systematic residual (MLP inference, sampling bias) stays
// inside the estimator's deadband, so every effective factor remains
// exactly 1.0 and no correction, invalidation or feedback replan ever
// fires. Makespans are compared by IEEE-754 bit pattern and the full
// event trace by SHA-256.
func TestFeedbackNoOpWithoutModelError(t *testing.T) {
	s, err := workloads.ByName("heat")
	if err != nil {
		t.Fatal(err)
	}
	for mname, h := range feedbackMachines() {
		for _, p := range []Policy{NVMOnly, FirstTouch, XMem, HWCache, PhaseBased, Tahoe} {
			build := func(mutate func(*Config)) (Result, string) {
				g := s.Build(workloads.Params{Scale: 6}).Graph
				cfg := DefaultConfig(h)
				cfg.Policy = p
				cfg.Prof = cfg.Prof.Exact()
				tr := &trace.Trace{}
				cfg.Trace = tr
				if mutate != nil {
					mutate(&cfg)
				}
				res, err := Run(g, cfg)
				if err != nil {
					t.Fatalf("%s/%v: %v", mname, p, err)
				}
				return res, traceSHA(t, tr)
			}
			base, baseSHA := build(nil)
			for name, mutate := range map[string]func(*Config){
				"off-again":     func(cfg *Config) { cfg.Feedback = feedback.Config{} },
				"on-zero-error": func(cfg *Config) { cfg.Feedback = feedback.Config{Enabled: true} },
			} {
				got, gotSHA := build(mutate)
				if got.FeedbackCorrections != 0 || got.FeedbackReplans != 0 {
					t.Errorf("%s/%v/%s: feedback acted without model error: %d corrections, %d replans",
						mname, p, name, got.FeedbackCorrections, got.FeedbackReplans)
				}
				if got != base {
					t.Errorf("%s/%v/%s: Result differs:\nbase %+v\ngot  %+v", mname, p, name, base, got)
					continue
				}
				if math.Float64bits(base.Time) != math.Float64bits(got.Time) {
					t.Errorf("%s/%v/%s: makespan differs bitwise: %x vs %x",
						mname, p, name, math.Float64bits(base.Time), math.Float64bits(got.Time))
				}
				if gotSHA != baseSHA {
					t.Errorf("%s/%v/%s: trace SHA-256 differs: %s vs %s", mname, p, name, gotSHA, baseSHA)
				}
			}
		}
	}
}

// TestFeedbackCorrectsInjectedCalibrationError drives the loop with a
// deliberately wrong bandwidth calibration: CFBw deflated 8x drops
// bandwidth benefits below migration costs and behind latency benefits
// in the ranking, and only the feedback corrections can recover the
// placement. The cell (fft on a bandwidth-starved NVM) is one where
// uniform deflation genuinely reorders the knapsack — on capacity-bound
// single-kind workloads it merely rescales every weight and changes
// nothing, which is itself part of the model's story (see E21). The
// factors must activate, and the corrected run must recover at least
// half the makespan gap to the well-calibrated run.
func TestFeedbackCorrectsInjectedCalibrationError(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.25), 96*mem.MB)
	s, err := workloads.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfbw float64, fb bool) Result {
		g := s.Build(workloads.Params{}).Graph
		cfg := DefaultConfig(h)
		cfg.Policy = Tahoe
		cfg.Prof = cfg.Prof.Exact()
		cfg.CFBw = cfbw
		if fb {
			cfg.Feedback.Enabled = true
		}
		res, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	good := run(1.0, false)
	bad := run(1.0/8, false)
	fixed := run(1.0/8, true)
	if fixed.FeedbackCorrections == 0 {
		t.Fatalf("no correction factors active under 8x calibration error")
	}
	if bad.Time <= good.Time*1.02 {
		t.Fatalf("calibration error did not hurt this cell (bad %.4f vs good %.4f); the test lost its teeth", bad.Time, good.Time)
	}
	if halfway := bad.Time - (bad.Time-good.Time)/2; fixed.Time > halfway {
		t.Errorf("feedback recovered less than half the gap: fixed %.4f, want <= %.4f (bad %.4f, good %.4f)",
			fixed.Time, halfway, bad.Time, good.Time)
	}
}

// The estimator's unit tests live in internal/feedback; this file keeps
// the runner-level contracts (bit-identity and recovery).
