package cliutil

import (
	"encoding/json"
	"flag"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/mem"
	"repro/internal/prof"
)

func TestMachineSpecDefaults(t *testing.T) {
	h, err := MachineSpec{}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumTiers() != 2 {
		t.Fatalf("default machine has %d tiers, want 2", h.NumTiers())
	}
	if h.Capacity(h.Fastest()) != 128*mem.MB {
		t.Fatalf("default DRAM capacity %d, want 128 MB", h.Capacity(h.Fastest()))
	}
	if h.Device(0).ReadBW != mem.NVMBandwidth(0.5).ReadBW {
		t.Fatalf("default NVM bandwidth %g", h.Device(0).ReadBW)
	}
}

func TestMachineSpecThreeTier(t *testing.T) {
	h, err := MachineSpec{NVM: "optane", DRAMMB: 64, CXLMB: 256}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumTiers() != 3 {
		t.Fatalf("cxl machine has %d tiers, want 3", h.NumTiers())
	}
	if h.Tiers[1].Capacity != 256*mem.MB {
		t.Fatalf("CXL tier capacity %d", h.Tiers[1].Capacity)
	}
	if h.Device(0).Name != "OptanePM" {
		t.Fatalf("slow device %q", h.Device(0).Name)
	}
}

func TestMachineSpecErrors(t *testing.T) {
	for _, nvm := range []string{"dax", "bw:NaN", "lat:Inf"} {
		if _, err := (MachineSpec{NVM: nvm}).Build(); err == nil {
			t.Fatalf("bad NVM spec %q accepted", nvm)
		}
	}
	if _, err := (MachineSpec{DRAMMB: -1}).Build(); err == nil {
		t.Fatal("negative DRAM accepted")
	}
	// Capacities that wrap when scaled to bytes used to build a machine
	// with 1 MB of DRAM (2^44+1 MB) or none (2^44 MB).
	for _, m := range []MachineSpec{
		{DRAMMB: 1<<44 + 1},
		{DRAMMB: 1 << 44},
		{CXLMB: 1<<44 + 1},
		{CXLMB: 1 << 44},
	} {
		_, err := m.Build()
		if err == nil {
			t.Fatalf("%+v: oversized capacity accepted", m)
		}
		field := "dram_mb"
		if m.CXLMB != 0 {
			field = "cxl_mb"
		}
		if !strings.Contains(err.Error(), field) {
			t.Fatalf("%+v: error %q does not name %s", m, err, field)
		}
	}
	if _, err := (MachineSpec{DRAMMB: math.MaxInt64 / mem.MB, CXLMB: math.MaxInt64 / mem.MB}).Build(); err != nil {
		t.Fatalf("largest capacities refused: %v", err)
	}
}

// TestMachineSpecJSONRoundTrip pins the request-schema field names the
// serve daemon accepts: the same spec strings as the CLI flags.
func TestMachineSpecJSONRoundTrip(t *testing.T) {
	var m MachineSpec
	if err := json.Unmarshal([]byte(`{"nvm":"bw:0.25","dram_mb":64,"cxl_mb":32}`), &m); err != nil {
		t.Fatal(err)
	}
	if m.NVM != "bw:0.25" || m.DRAMMB != 64 || m.CXLMB != 32 {
		t.Fatalf("decoded %+v", m)
	}
	if m.String() != "nvm=bw:0.25,dram=64,cxl=32" {
		t.Fatalf("canonical form %q", m.String())
	}
}

func TestMachineFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	m := MachineFlags(fs)
	if err := fs.Parse([]string{"-nvm", "lat:4", "-dram", "32", "-cxl", "16"}); err != nil {
		t.Fatal(err)
	}
	if m.NVM != "lat:4" || m.DRAMMB != 32 || m.CXLMB != 16 {
		t.Fatalf("parsed %+v", *m)
	}
}

// TestParsePolicyAndScheduler: every policy and scheduler name resolves
// through a request, and an unknown one is refused.
func TestParsePolicyAndScheduler(t *testing.T) {
	resolve := func(req RunRequest) (Run, error) {
		req.Workload = "heat"
		return req.Resolve()
	}
	for _, name := range core.PolicyNames() {
		if _, err := resolve(RunRequest{Policy: name}); err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
	}
	if run, err := resolve(RunRequest{Policy: "tahoe"}); err != nil || run.Config.Policy != core.Tahoe {
		t.Fatalf("tahoe -> %v, %v", run.Config.Policy, err)
	}
	if _, err := resolve(RunRequest{Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	for _, name := range core.SchedulerNames() {
		if _, err := resolve(RunRequest{Scheduler: name}); err != nil {
			t.Fatalf("scheduler %q: %v", name, err)
		}
	}
	if _, err := resolve(RunRequest{Scheduler: "bogus"}); err == nil {
		t.Fatal("bogus scheduler accepted")
	}
}

// TestParseFaults: a request's fault spec resolves to its schedule; an
// empty spec is no schedule.
func TestParseFaults(t *testing.T) {
	run, err := (&RunRequest{Workload: "heat", Faults: "rate=2,seed=7,horizon=1"}).Resolve()
	if err != nil || run.Config.Faults.Empty() {
		t.Fatalf("spec rejected: %v (schedule %+v)", err, run.Config.Faults)
	}
	if run, err := (&RunRequest{Workload: "heat"}).Resolve(); err != nil || run.Config.Faults != nil {
		t.Fatalf("empty spec -> %v, %v", run.Config.Faults, err)
	}
	if _, err := (&RunRequest{Workload: "heat", Faults: "rate=x"}).Resolve(); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestParseFaultsRejectsHugeEventCount: the -faults flag cannot ask for
// an unbounded number of events.
func TestParseFaultsRejectsHugeEventCount(t *testing.T) {
	if _, err := (&RunRequest{Workload: "heat", Faults: "rate=1e9,horizon=1"}).Resolve(); err == nil {
		t.Fatal("-faults rate=1e9,horizon=1 accepted")
	}
	if _, err := fault.ParseClusterSpec("nodes=4,horizon=1,node-rate=1e9"); err == nil {
		t.Fatal("-cluster-faults node-rate=1e9 accepted")
	}
}

func TestParseSampling(t *testing.T) {
	base := prof.DefaultConfig()
	got, err := ParseSampling("interval=100000, jitter=0.4, seed=9, window=3, adaptive", base)
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.SamplingInterval = 100000
	want.Jitter = 0.4
	want.Seed = 9
	want.Window = 3
	want.Adaptive = true
	if got != want {
		t.Fatalf("ParseSampling = %+v, want %+v", got, want)
	}
	if got, err := ParseSampling("", base); err != nil || got != base {
		t.Fatalf("empty spec must be a no-op: %+v, %v", got, err)
	}
	for _, bad := range []string{"interval=0", "jitter=-1", "jitter=NaN", "jitter=Inf", "window=x", "bogus=1", "adaptive=maybe"} {
		if _, err := ParseSampling(bad, base); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestParseFeedback(t *testing.T) {
	base := feedback.Config{}
	if got, err := ParseFeedback("on", base); err != nil || got != (feedback.Config{Enabled: true}) {
		t.Fatalf("on -> %+v, %v", got, err)
	}
	if got, err := ParseFeedback("", base); err != nil || got != base {
		t.Fatalf("empty spec must be a no-op: %+v, %v", got, err)
	}
	// The estimator constants are fixed: the old tuning keys are errors.
	for _, bad := range []string{"alpha=0.5", "on,deadband=1.5", "threshold=0.75", "budget=6", "bogus=1", "off"} {
		if _, err := ParseFeedback(bad, base); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}
