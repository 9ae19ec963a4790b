package core

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/runs.golden from this tree's results")

const goldenPath = "testdata/runs.golden"

// goldenApps are perfbench's apps at its scales: graphs small enough that
// the whole grid runs in well under a second, large enough that the
// managed policies migrate and replan on many of them.
var goldenApps = []struct {
	name  string
	scale int
}{
	{"bfs", 5}, {"cg", 6}, {"cholesky", 6}, {"fft", 20}, {"heat", 6},
	{"kmeans", 4}, {"lu", 6}, {"pagerank", 4}, {"qr", 5}, {"sort", 20},
	{"sparselu", 8}, {"strassen", 1}, {"wave", 6},
}

// goldenMachines are the two machines of the grid: the paper's 2-tier
// 128 MB DRAM in front of half-bandwidth NVM, and a 3-tier DRAM + CXL +
// Optane machine.
var goldenMachines = []struct {
	name string
	hms  mem.HMS
}{
	{"2tier-bw0.5", mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)},
	{"3tier-optane", mem.NewTieredHMS(
		mem.TierSpec{Device: mem.OptanePM(), Capacity: 1 << 44},
		mem.TierSpec{Device: mem.CXL(), Capacity: 128 * mem.MB},
		mem.TierSpec{Device: mem.DRAM(), Capacity: 64 * mem.MB},
	)},
}

// goldenRun runs one configuration twice, untraced and traced, and
// renders its golden line. The traced run must reproduce the untraced
// makespan bit for bit: tracing observes, it never steers.
func goldenRun(t *testing.T, name string, app string, scale int, cfg Config) string {
	t.Helper()
	s, err := workloads.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Build(workloads.Params{Scale: scale}).Graph
	res, err := Run(g, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tr := &trace.Trace{}
	cfg.Trace = tr
	traced, err := Run(g, cfg)
	if err != nil {
		t.Fatalf("%s traced: %v", name, err)
	}
	if traced.Time != res.Time {
		t.Errorf("%s: traced makespan %x, untraced %x", name, math.Float64bits(traced.Time), math.Float64bits(res.Time))
	}
	return fmt.Sprintf("%s time=%016x energy=%016x migrations=%d replans=%d trace=%s",
		name, math.Float64bits(res.Time), math.Float64bits(res.EnergyJ),
		res.Migration.Migrations, res.Replans, traceSHA(t, tr))
}

// goldenCase is one run of the golden grid.
type goldenCase struct {
	name  string
	app   string
	scale int
	cfg   Config
}

// goldenLines computes every line of the golden file, in order.
func goldenLines(t *testing.T) []string {
	var lines []string
	for _, c := range goldenCases(t) {
		lines = append(lines, goldenRun(t, c.name, c.app, c.scale, c.cfg))
	}
	return lines
}

// goldenCases lists the golden grid: each app under six policies on both
// grid machines, then Tahoe with noisy adaptive sampling and Tahoe under
// a fault schedule with feedback on, both on a 2-tier machine with 32 MB
// of DRAM, where most graphs overflow DRAM and the noise, faults and
// corrections steer placement. Model factors are calibrated per machine,
// as the daemon does.
func goldenCases(t *testing.T) []goldenCase {
	calibrated := func(h mem.HMS) Config {
		f, err := calib.Calibrate(calib.Envelope(h), prof.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(h)
		cfg.CFBw, cfg.CFLat = f.CFBw, f.CFLat
		return cfg
	}
	var cases []goldenCase
	for _, m := range goldenMachines {
		base := calibrated(m.hms)
		for _, a := range goldenApps {
			for _, p := range []Policy{NVMOnly, FirstTouch, HWCache, DRAMOnly, Tahoe, PhaseBased} {
				cfg := base
				cfg.Policy = p
				name := fmt.Sprintf("%s/%d %s %s", a.name, a.scale, p, m.name)
				cases = append(cases, goldenCase{name, a.name, a.scale, cfg})
			}
		}
	}
	faults, err := fault.ParseSpec("rate=200,seed=7,horizon=0.05,tiers=2")
	if err != nil {
		t.Fatal(err)
	}
	base := calibrated(mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 32*mem.MB))
	for _, a := range goldenApps {
		noisy := base
		noisy.Prof.Jitter, noisy.Prof.Seed, noisy.Prof.Adaptive = 0.3, 42, true
		cases = append(cases, goldenCase{fmt.Sprintf("%s/%d %s 2tier-bw0.5-32MB noisy-adaptive", a.name, a.scale, Tahoe), a.name, a.scale, noisy})
		faulty := base
		faulty.Faults = faults
		faulty.Feedback.Enabled = true
		cases = append(cases, goldenCase{fmt.Sprintf("%s/%d %s 2tier-bw0.5-32MB faults-feedback", a.name, a.scale, Tahoe), a.name, a.scale, faulty})
	}
	return cases
}

// TestGoldenRuns pins the results of a fixed grid of runs bit for bit:
// makespan and energy by IEEE-754 bit pattern, migration and replan
// counts, and the SHA-256 of the full trace JSONL. A change meant to
// leave every result alone must pass it unchanged; a change meant to
// move numbers regenerates the file with `go test ./internal/core -run
// TestGoldenRuns -update` and says so. Go fuses multiply-adds on some
// architectures (arm64 among them), which moves last bits, so the pins
// hold on amd64 only.
func TestGoldenRuns(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	got := goldenLines(t)
	if *update {
		var buf bytes.Buffer
		buf.WriteString("# name policy machine [variant] time=<Float64bits> energy=<Float64bits> migrations=<n> replans=<n> trace=<sha256 of JSONL>\n")
		for _, l := range got {
			buf.WriteString(l + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := goldenWant(t)
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("run %d differs:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d runs differ from %s", bad, len(got), goldenPath)
	}
}

// goldenWant reads the golden file's lines.
func goldenWant(t *testing.T) []string {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	return want
}
