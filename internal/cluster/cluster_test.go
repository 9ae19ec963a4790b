package cluster

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/workloads"
)

func cfgFor(nodes, ranksPerNode int, nodeDRAM int64, p core.Policy) Config {
	rc := core.DefaultConfig(mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), nodeDRAM))
	rc.Policy = p
	rc.Workers = 4
	return Config{
		Nodes:        nodes,
		RanksPerNode: ranksPerNode,
		NodeDRAM:     nodeDRAM,
		NVM:          mem.NVMBandwidth(0.5),
		Net:          EdisonNetwork(),
		Rank:         rc,
	}
}

func dist(t *testing.T, name string) workloads.Distributed {
	t.Helper()
	d, err := workloads.DistributedByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDistributedRegistry(t *testing.T) {
	for _, name := range []string{"heat", "cg"} {
		d := dist(t, name)
		if d.BuildRank == nil || d.CommBytesPerIter == nil || d.Iterations == nil {
			t.Fatalf("%s: incomplete decomposition", name)
		}
	}
	if _, err := workloads.DistributedByName("nqueens"); err == nil {
		t.Fatal("nqueens should have no decomposition")
	}
}

func TestRankGraphsShrinkWithScale(t *testing.T) {
	d := dist(t, "heat")
	p := workloads.Params{}
	var prev int64
	for i, ranks := range []int{1, 2, 4, 8} {
		g := d.BuildRank(0, ranks, p).Graph
		if err := g.Validate(); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		var footprint int64
		for _, o := range g.Objects {
			footprint += o.Size
		}
		if i > 0 && footprint >= prev {
			t.Fatalf("footprint did not shrink: %d -> %d at %d ranks", prev, footprint, ranks)
		}
		prev = footprint
	}
}

func TestStrongScalingComputeDrops(t *testing.T) {
	d := dist(t, "cg")
	p := workloads.Params{Scale: 8}
	var prev float64
	for i, nodes := range []int{1, 2, 4} {
		res, err := StrongScale(d, p, cfgFor(nodes, 1, 256*mem.MB, core.NVMOnly))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerRank) != nodes {
			t.Fatalf("ranks = %d", len(res.PerRank))
		}
		if i > 0 && res.ComputeSec >= prev {
			t.Fatalf("compute did not drop with scale: %g -> %g", prev, res.ComputeSec)
		}
		prev = res.ComputeSec
	}
}

func TestCommunicationOnlyBeyondOneRank(t *testing.T) {
	d := dist(t, "heat")
	p := workloads.Params{Scale: 4}
	solo, err := StrongScale(d, p, cfgFor(1, 1, 256*mem.MB, core.NVMOnly))
	if err != nil {
		t.Fatal(err)
	}
	if solo.CommSec != 0 {
		t.Fatalf("single rank paid communication: %g", solo.CommSec)
	}
	multi, err := StrongScale(d, p, cfgFor(4, 1, 256*mem.MB, core.NVMOnly))
	if err != nil {
		t.Fatal(err)
	}
	if multi.CommSec <= 0 {
		t.Fatal("multi-rank run paid no communication")
	}
	if multi.JobSec != multi.ComputeSec+multi.CommSec {
		t.Fatal("job time accounting broken")
	}
}

// TestTahoeTracksDRAMAcrossScales is the Edison experiment's property:
// at every scale, the managed runtime stays near the DRAM-only bound
// while NVM-only keeps its gap.
func TestTahoeTracksDRAMAcrossScales(t *testing.T) {
	d := dist(t, "cg")
	p := workloads.Params{Scale: 8}
	for _, nodes := range []int{1, 4} {
		run := func(pol core.Policy) float64 {
			res, err := StrongScale(d, p, cfgFor(nodes, 1, 128*mem.MB, pol))
			if err != nil {
				t.Fatal(err)
			}
			return res.JobSec
		}
		dram := run(core.DRAMOnly)
		nvm := run(core.NVMOnly)
		tahoe := run(core.Tahoe)
		if nvm <= dram {
			t.Fatalf("nodes=%d: no NVM gap (%g vs %g)", nodes, nvm, dram)
		}
		if tahoe > dram+0.75*(nvm-dram) {
			t.Fatalf("nodes=%d: Tahoe %g recovered too little of [%g, %g]", nodes, tahoe, dram, nvm)
		}
	}
}

// TestRanksShareNodeService: over-subscribing a node's DRAM must fail
// loudly rather than over-commit.
func TestRanksShareNodeService(t *testing.T) {
	d := dist(t, "heat")
	p := workloads.Params{Scale: 2}
	// 2 ranks per node each reserve half the node allowance; the job must
	// succeed and each rank's high-water mark must stay within its share.
	cfg := cfgFor(1, 2, 128*mem.MB, core.Tahoe)
	res, err := StrongScale(d, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range res.PerRank {
		if rr.DRAMHighWaterBytes > 64*mem.MB {
			t.Fatalf("rank %d used %d bytes, share is %d", i, rr.DRAMHighWaterBytes, 64*mem.MB)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := cfgFor(0, 1, 128*mem.MB, core.NVMOnly)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad = cfgFor(1, 1, 128*mem.MB, core.NVMOnly)
	bad.Net.Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero network bandwidth accepted")
	}
}

// TestValidateCapsRanks: a job's shape is refused above MaxRanks before
// anything is sized by it, whether one count is huge or the product of
// two counts overflows int; the cap itself is legal. NodeDRAM is 0 so the
// per-rank share check cannot refuse the shapes first.
func TestValidateCapsRanks(t *testing.T) {
	refused := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "above the cap of 1024 ranks")
	}
	// StrongScale sizes its per-node tables by the node count.
	if _, err := StrongScale(dist(t, "heat"), workloads.Params{}, cfgFor(1<<62, 1, 0, core.NVMOnly)); !refused(err) {
		t.Fatalf("2^62 nodes: %v", err)
	}
	for _, shape := range [][2]int{{1 << 32, 1 << 32}, {1, 1 << 40}, {64, 32}} {
		if err := cfgFor(shape[0], shape[1], 0, core.NVMOnly).Validate(); !refused(err) {
			t.Fatalf("%d nodes x %d ranks: %v", shape[0], shape[1], err)
		}
	}
	for _, shape := range [][2]int{{MaxRanks, 1}, {1, MaxRanks}, {32, 32}} {
		if err := cfgFor(shape[0], shape[1], 0, core.NVMOnly).Validate(); err != nil {
			t.Fatalf("%d nodes x %d ranks: %v", shape[0], shape[1], err)
		}
	}
}

func TestDeterministicJob(t *testing.T) {
	d := dist(t, "cg")
	p := workloads.Params{Scale: 6}
	run := func() Result {
		res, err := StrongScale(d, p, cfgFor(2, 2, 128*mem.MB, core.Tahoe))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.JobSec != b.JobSec || a.ComputeSec != b.ComputeSec {
		t.Fatalf("nondeterministic cluster run: %+v vs %+v", a, b)
	}
}
