package fault

import (
	"reflect"
	"strings"
	"testing"
)

// TestSpecRoundTripSeeded is the seeded property test for the spec
// grammar: ParseSpec(s.String()) is identity for Random schedules across
// 200 seeds, with rate/horizon/tiers varied deterministically per seed.
func TestSpecRoundTripSeeded(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rate := 0.5 + float64(seed%7)
		horizon := 0.3 + 0.4*float64(seed%5)
		tiers := 2 + int(seed%3)
		s := Random(seed, rate, horizon, tiers)
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("seed %d: ParseSpec(%q): %v", seed, s.String(), err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("seed %d: round trip diverged:\n  %+v\n  %+v", seed, s, back)
		}
	}
	// The nil schedule round-trips too: String() is "" and ParseSpec("")
	// is (nil, nil).
	var nilSched *Schedule
	if nilSched.String() != "" {
		t.Fatal("nil schedule should stringify empty")
	}
	if s, err := ParseSpec(nilSched.String()); err != nil || s != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", s, err)
	}
}

// TestClusterSpecRoundTripSeeded: the same property for cluster
// schedules, and for every derived rank schedule's "cluster:...;rank=N"
// spec through the ordinary ParseSpec path.
func TestClusterSpecRoundTripSeeded(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		nodes := 1 + int(seed%4)
		rpn := 1 + int(seed%2)
		nodeRate := 0.25 * float64(seed%5)
		devRate := float64(seed % 4)
		horizon := 0.5 + 0.25*float64(seed%3)
		cs := RandomCluster(seed, nodeRate, devRate, horizon, nodes, rpn, 2)
		back, err := ParseClusterSpec(cs.String())
		if err != nil {
			t.Fatalf("seed %d: ParseClusterSpec(%q): %v", seed, cs.String(), err)
		}
		if !reflect.DeepEqual(cs, back) {
			t.Fatalf("seed %d: cluster round trip diverged:\n  %+v\n  %+v", seed, cs, back)
		}
		rank := int(seed) % (nodes * rpn)
		rs := cs.RankSchedule(rank)
		rback, err := ParseSpec(rs.String())
		if err != nil {
			t.Fatalf("seed %d: ParseSpec(%q): %v", seed, rs.String(), err)
		}
		if !reflect.DeepEqual(rs, rback) {
			t.Fatalf("seed %d rank %d: rank-spec round trip diverged:\n  %+v\n  %+v",
				seed, rank, rs, rback)
		}
	}
}

// FuzzFaultSpec feeds one string to both spec parsers, seeded with the
// specs of this package's tests. Neither may panic, and a schedule either
// parser accepts must re-parse from its String() to a deeply equal one.
func FuzzFaultSpec(f *testing.F) {
	for _, spec := range []string{
		"", "none", "  none  ", "rate=1", "rate=x,horizon=1", "rate=-1,horizon=1",
		"rate=1,horizon=1,bogus=2", "rate=NaN,horizon=1", "rate=1,horizon=Inf",
		"rate=2,seed=9,horizon=0.5", "rate=3,seed=42,horizon=2,tiers=3",
		"rate=200,seed=7,horizon=0.05,tiers=2", "rate=1e9,horizon=1", "rate=1,horizon=1e300",
		"nodes=4", "nodes=0,horizon=1", "nodes=4,rpn=0,horizon=1", "nodes=4,horizon=1,node-rate=",
		"nodes=4,horizon=1,node-rate=NaN", "nodes=1000000,horizon=1,node-rate=2",
		"nodes=4,node-rate=10,dev-rate=200,seed=7,horizon=0.05",
		"nodes=4,rpn=2,node-rate=0.5,dev-rate=2,seed=7,horizon=1.5,tiers=3",
		"cluster:nodes=2,horizon=1", "cluster:nodes=2,horizon=1;rank=9", "cluster:;rank=0",
		"cluster:nodes=2,horizon=1,dev-rate=1e9;rank=0",
		"cluster:nodes=2,rpn=2,node-rate=0.5,dev-rate=3,seed=11,horizon=0.5,tiers=2;rank=3",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if s, err := ParseSpec(spec); err == nil {
			back, err := ParseSpec(s.String())
			if err != nil || !reflect.DeepEqual(s, back) {
				t.Fatalf("ParseSpec(%q) does not round-trip through %q: %v", spec, s.String(), err)
			}
		}
		if cs, err := ParseClusterSpec(spec); err == nil {
			back, err := ParseClusterSpec(cs.String())
			if err != nil || !reflect.DeepEqual(cs, back) {
				t.Fatalf("ParseClusterSpec(%q) does not round-trip through %q: %v", spec, cs.String(), err)
			}
		}
	})
}

// TestRankSchedulesShareNode: co-located ranks see one device schedule
// (same events, distinct per-rank spec); separate nodes decorrelate.
func TestRankSchedulesShareNode(t *testing.T) {
	cs := RandomCluster(7, 0.5, 4, 1.0, 2, 2, 2)
	r0, r1 := cs.RankSchedule(0), cs.RankSchedule(1)
	if !reflect.DeepEqual(r0.Events, r1.Events) {
		t.Fatal("ranks 0 and 1 share node 0 but got different device schedules")
	}
	if r0.Spec == r1.Spec {
		t.Fatal("sibling ranks must still carry distinct rank specs")
	}
	r2 := cs.RankSchedule(2)
	if reflect.DeepEqual(r0.Events, r2.Events) {
		t.Fatal("nodes 0 and 1 got identical device schedules — seeds not decorrelated")
	}
	for _, rs := range []*Schedule{r0, r1, r2} {
		if !strings.HasPrefix(rs.Spec, "cluster:") {
			t.Fatalf("derived schedule spec %q lacks cluster: prefix", rs.Spec)
		}
		if err := rs.Validate(2); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterScheduleEmptyAndValidate(t *testing.T) {
	var nilCS *ClusterSchedule
	if !nilCS.Empty() {
		t.Fatal("nil cluster schedule should be empty")
	}
	if err := nilCS.Validate(4, 2); err != nil {
		t.Fatal(err)
	}
	if !RandomCluster(1, 0, 0, 1, 4, 1, 2).Empty() {
		t.Fatal("zero-rate cluster schedule should be empty")
	}
	if RandomCluster(1, 2, 0, 1, 4, 1, 2).Empty() {
		t.Fatal("node outages alone should make the schedule non-empty")
	}
	if RandomCluster(1, 0, 3, 1, 4, 1, 2).Empty() {
		t.Fatal("device faults alone should make the schedule non-empty")
	}

	cs := RandomCluster(1, 1, 1, 1, 4, 2, 2)
	if err := cs.Validate(4, 2); err != nil {
		t.Fatal(err)
	}
	if err := cs.Validate(8, 2); err == nil {
		t.Fatal("schedule for 4 nodes accepted by an 8-node cluster")
	}
	if err := cs.Validate(4, 1); err == nil {
		t.Fatal("schedule for 2 ranks/node accepted by a 1-rank/node cluster")
	}
	bad := &ClusterSchedule{Nodes: 2, RanksPerNode: 1, Tiers: 2,
		Outages: []NodeOutage{{Node: 5, At: 0.1, Until: 0.2}}}
	if err := bad.Validate(2, 1); err == nil {
		t.Fatal("out-of-range outage node accepted")
	}
	bad = &ClusterSchedule{Nodes: 2, RanksPerNode: 1, Tiers: 2,
		Outages: []NodeOutage{{Node: 0, At: 0.2, Until: 0.2}}}
	if err := bad.Validate(2, 1); err == nil {
		t.Fatal("windowless outage accepted")
	}
}

func TestParseClusterSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"rpn=2,horizon=1",              // missing nodes
		"nodes=4",                      // missing horizon
		"nodes=0,horizon=1",            // bad nodes
		"nodes=4,rpn=0,horizon=1",      // bad rpn
		"nodes=4,horizon=1,node-rate=", // bad value
		"nodes=4,horizon=1,bogus=3",    // unknown key
		"nodes=4,horizon=-1",           // negative horizon
		// non-finite rates and horizon
		"nodes=4,horizon=1,node-rate=NaN",
		"nodes=4,horizon=1,dev-rate=NaN",
		"nodes=4,horizon=1,node-rate=Inf",
		"nodes=4,horizon=NaN",
		"nodes=4,horizon=Inf",
	} {
		if _, err := ParseClusterSpec(spec); err == nil {
			t.Fatalf("ParseClusterSpec(%q) accepted", spec)
		}
	}
	if cs, err := ParseClusterSpec("none"); err != nil || cs != nil {
		t.Fatalf("none: got (%v, %v)", cs, err)
	}
	for _, spec := range []string{
		"cluster:nodes=2,horizon=1",                // no rank suffix
		"cluster:nodes=2,horizon=1;rank=9",         // rank out of range
		"cluster:nodes=2,horizon=1;rank=x",         // bad rank
		"cluster:;rank=0",                          // empty cluster spec
		"cluster:nodes=0,horizon=1;rank=0",         // invalid cluster spec
		"cluster:nodes=2,horizon=1;rank=-1",        // negative rank
		"cluster:nodes=2,bogus=1,horizon=1;rank=0", // unknown key
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", spec)
		}
	}
}
