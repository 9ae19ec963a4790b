package fault

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestRandomIsDeterministic(t *testing.T) {
	a := Random(42, 3, 2, 3)
	b := Random(42, 3, 2, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, rate, horizon, tiers) produced different schedules")
	}
	if len(a.Events) != 6 {
		t.Fatalf("rate=3 over horizon=2 produced %d events, want 6", len(a.Events))
	}
	if err := a.Validate(3); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	c := Random(43, 3, 2, 3)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical events")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	orig := Random(7, 1.5, 2.25, 3)
	back, err := ParseSpec(orig.Spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", orig.Spec, err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("spec %q did not round-trip:\norig %+v\nback %+v", orig.Spec, orig, back)
	}
}

func TestParseSpec(t *testing.T) {
	for _, empty := range []string{"", "none", "  none  "} {
		s, err := ParseSpec(empty)
		if err != nil || s != nil {
			t.Fatalf("ParseSpec(%q) = %v, %v; want nil, nil", empty, s, err)
		}
	}
	if _, err := ParseSpec("rate=1"); err == nil {
		t.Fatal("spec without horizon accepted")
	}
	if _, err := ParseSpec("rate=1,horizon=1,bogus=2"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseSpec("rate=x,horizon=1"); err == nil {
		t.Fatal("non-numeric rate accepted")
	}
	if _, err := ParseSpec("rate=-1,horizon=1"); err == nil {
		t.Fatal("negative rate accepted")
	}
	// strconv parses "NaN" and "Inf": a NaN rate used to yield an empty
	// schedule and no error.
	for _, bad := range []string{"rate=NaN,horizon=1", "rate=1,horizon=NaN", "rate=Inf,horizon=1", "rate=1,horizon=Inf"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("non-finite spec %q accepted", bad)
		}
	}
	s, err := ParseSpec("rate=2,seed=9,horizon=0.5")
	if err != nil || s == nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Seed != 9 || len(s.Events) != 1 {
		t.Fatalf("spec built %+v", s)
	}
}

func TestValidate(t *testing.T) {
	bad := []Schedule{
		{Events: []Event{{At: -1, Kind: Degrade, Tier: 1, Until: 1, Factor: 2}}},
		{Events: []Event{{Kind: Degrade, Tier: 5, Until: 1, Factor: 2}}},
		{Events: []Event{{Kind: TransientCopyFail, Tier: 1, Count: 0}}},
		{Events: []Event{{Kind: TransientCopyFail, Tier: 1, Count: 1, From: 7}}},
		{Events: []Event{{Kind: Degrade, Tier: 1, Until: 1, Factor: 0.5}}},
		{Events: []Event{{At: 1, Until: 1, Kind: Degrade, Tier: 1, Factor: 2}}},
		{Events: []Event{{Kind: TierOutage, Tier: 0, Until: 1}}},
		{Events: []Event{{At: 1, Until: 0.5, Kind: TierOutage, Tier: 1}}},
		{Events: []Event{{Kind: Kind(99), Tier: 1}}},
	}
	for i, s := range bad {
		if err := s.Validate(2); err == nil {
			t.Errorf("bad schedule %d accepted: %+v", i, s.Events[0])
		}
	}
	var nilSched *Schedule
	if err := nilSched.Validate(2); err != nil {
		t.Fatalf("nil schedule: %v", err)
	}
	if !nilSched.Empty() {
		t.Fatal("nil schedule not Empty")
	}
	ok := Schedule{Events: []Event{
		{At: 0.1, Until: 0.3, Kind: TransientCopyFail, Tier: 1, From: AnySource, Count: 2},
		{At: 0.2, Until: 0.4, Kind: Degrade, Tier: 0, Factor: 4},
		{At: 0.5, Until: 0.6, Kind: CopyStall, Factor: 3},
		{At: 0.7, Until: 0.9, Kind: TierOutage, Tier: 1},
	}}
	if err := ok.Validate(2); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// probe runs f at virtual time at, keeping the engine alive with a
// regular timer so daemon boundaries up to that point have fired.
func probe(e *sim.Engine, at float64, f func()) {
	e.At(at, func(float64) { f() })
}

func TestInjectorWindows(t *testing.T) {
	base := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	s := &Schedule{Events: []Event{
		{At: 1, Until: 2, Kind: Degrade, Tier: 1, Factor: 4},
		{At: 1.5, Until: 2.5, Kind: CopyStall, Factor: 3},
	}}
	e := sim.NewEngine()
	in := NewInjector(e, s)
	var events []string
	in.OnEvent = func(now float64, ev Event, active bool) {
		events = append(events, ev.Kind.String()+map[bool]string{true: "+", false: "-"}[active])
	}
	in.Install()

	probe(e, 0.5, func() {
		if got := in.DegradedView(base); !reflect.DeepEqual(got, base) {
			t.Error("view degraded before any window")
		}
		if in.CopyInflation(0, 1) != 1 {
			t.Error("inflation before stall window")
		}
	})
	probe(e, 1.25, func() {
		v := in.DegradedView(base)
		if v.Device(mem.InDRAM).ReadBW != base.Device(mem.InDRAM).ReadBW/4 {
			t.Errorf("degraded DRAM BW = %g, want %g", v.Device(mem.InDRAM).ReadBW, base.Device(mem.InDRAM).ReadBW/4)
		}
		if v.Device(mem.InDRAM).ReadLatNS != base.Device(mem.InDRAM).ReadLatNS*4 {
			t.Errorf("degraded DRAM latency = %g", v.Device(mem.InDRAM).ReadLatNS)
		}
		if v.Device(mem.InNVM).ReadBW != base.Device(mem.InNVM).ReadBW {
			t.Error("untouched tier derated")
		}
		if base.Device(mem.InDRAM) != mem.DRAM() {
			t.Error("degraded view wrote through to the base machine's tiers")
		}
		// Memoization: same epoch returns the same view.
		if v2 := in.DegradedView(base); !reflect.DeepEqual(v, v2) {
			t.Error("memoized view differs")
		}
	})
	probe(e, 1.75, func() {
		if in.CopyInflation(0, 1) != 3 {
			t.Errorf("inflation = %g, want 3", in.CopyInflation(0, 1))
		}
	})
	probe(e, 2.75, func() {
		if got := in.DegradedView(base); !reflect.DeepEqual(got, base) {
			t.Error("view still degraded after recovery")
		}
		if in.CopyInflation(0, 1) != 1 {
			t.Error("inflation after stall window")
		}
	})
	e.Run()
	want := []string{"degrade+", "copy-stall+", "degrade-", "copy-stall-"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("event sequence = %v, want %v", events, want)
	}
}

func TestInjectorCopyFailCredits(t *testing.T) {
	s := &Schedule{Events: []Event{
		{At: 1, Until: 3, Kind: TransientCopyFail, Tier: 1, From: AnySource, Count: 2},
	}}
	e := sim.NewEngine()
	in := NewInjector(e, s)
	in.Install()
	probe(e, 0.5, func() {
		if in.CopyFails(0, 1) {
			t.Error("fails before window")
		}
	})
	probe(e, 1.5, func() {
		if !in.CopyFails(0, 1) || !in.CopyFails(0, 1) {
			t.Error("credits not consumed")
		}
		if in.CopyFails(0, 1) {
			t.Error("third copy failed with Count=2")
		}
		if in.CopyFails(1, 0) {
			t.Error("copy to untargeted tier failed")
		}
	})
	e.Run()
}

func TestInjectorOutage(t *testing.T) {
	base := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	s := &Schedule{Events: []Event{
		{At: 1, Until: 2, Kind: TierOutage, Tier: 1},
	}}
	e := sim.NewEngine()
	in := NewInjector(e, s)
	in.Install()
	probe(e, 1.5, func() {
		if !in.TierOut(1) {
			t.Error("tier not out during outage")
		}
		if !in.CopyFails(0, 1) {
			t.Error("copy into outaged tier succeeded")
		}
		v := in.DegradedView(base)
		if v.Device(mem.InDRAM).ReadBW != base.Device(mem.InDRAM).ReadBW/outageDerate {
			t.Errorf("outaged tier BW = %g, want /%d", v.Device(mem.InDRAM).ReadBW, outageDerate)
		}
	})
	probe(e, 2.5, func() {
		if in.TierOut(1) {
			t.Error("tier still out after recovery")
		}
		if in.CopyFails(0, 1) {
			t.Error("copy fails after recovery")
		}
	})
	e.Run()
	if got := in.RecoveryAt(1, 0.5); got != 2 {
		t.Fatalf("RecoveryAt(1, 0.5) = %g, want 2", got)
	}
	if got := in.RecoveryAt(1, 2.5); got != 0 {
		t.Fatalf("RecoveryAt(1, 2.5) = %g, want 0", got)
	}
}

func TestInjectorNilScheduleIsInert(t *testing.T) {
	base := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	e := sim.NewEngine()
	in := NewInjector(e, nil)
	in.Install()
	if in.CopyFails(0, 1) || in.CopyInflation(0, 1) != 1 || in.TierOut(1) {
		t.Fatal("nil schedule injects")
	}
	if got := in.DegradedView(base); !reflect.DeepEqual(got, base) {
		t.Fatal("nil schedule degrades the view")
	}
	if end := e.Run(); end != 0 {
		t.Fatalf("empty injector kept the engine alive until %g", end)
	}
}

// TestParseSpecCapsEventCount: a spec asking for more than MaxEvents
// events is refused before Random allocates them; rate=1e9,horizon=1
// used to ask for 1e9.
func TestParseSpecCapsEventCount(t *testing.T) {
	for _, spec := range []string{
		"rate=1e9,horizon=1",
		"rate=1048577,horizon=1",
		"rate=1,horizon=1e300",
		"cluster:nodes=2,horizon=1,dev-rate=1e9;rank=0",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
	if s, err := ParseSpec("rate=2000,horizon=2"); err != nil || len(s.Events) != 4000 {
		t.Fatalf("4000-event spec: %v (events %d)", err, len(s.Events))
	}
}

// TestParseClusterSpecCapsEventCount: the same cap holds for a cluster
// spec's node outages (node-rate*horizon*nodes) and for each node's
// device schedule (dev-rate*horizon).
func TestParseClusterSpecCapsEventCount(t *testing.T) {
	for _, spec := range []string{
		"nodes=4,horizon=1,node-rate=1e9",
		"nodes=1000000,horizon=1,node-rate=2",
		"nodes=4,horizon=1,dev-rate=1e9",
	} {
		if _, err := ParseClusterSpec(spec); err == nil {
			t.Errorf("ParseClusterSpec(%q) accepted", spec)
		}
	}
	if _, err := ParseClusterSpec("nodes=1000,horizon=1,node-rate=2,dev-rate=1000"); err != nil {
		t.Fatalf("spec under the cap rejected: %v", err)
	}
}
