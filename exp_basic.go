package tahoe

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/workloads"
)

func init() {
	registerExperiment(Experiment{"T1", "NVM device characteristics used by every experiment", expT1})
	registerExperiment(Experiment{"T2", "Calibrated model constant factors per machine", expT2})
	registerExperiment(Experiment{"E1", "NVM-only slowdown vs memory bandwidth (normalized to DRAM-only)", expE1})
	registerExperiment(Experiment{"E2", "NVM-only slowdown vs memory latency (normalized to DRAM-only)", expE2})
	registerExperiment(Experiment{"E3", "Per-object placement sensitivity (one object group in DRAM at a time)", expE3})
}

// expT1 prints the device table (the analog of the paper's Table 1).
func expT1(opt ExpOptions) (*Table, error) {
	t := report.New("T1", "NVM device characteristics",
		"Device", "Read lat (ns)", "Write lat (ns)", "Read BW (MB/s)", "Write BW (MB/s)")
	for _, d := range []mem.DeviceSpec{mem.DRAM(), mem.STTRAM(), mem.PCRAM(), mem.ReRAM(), mem.OptanePM()} {
		t.AddRow(d.Name,
			fmt.Sprintf("%.0f", d.ReadLatNS), fmt.Sprintf("%.0f", d.WriteLatNS),
			fmt.Sprintf("%.0f", d.ReadBW/1e6), fmt.Sprintf("%.0f", d.WriteBW/1e6))
	}
	t.Note("emulated configurations scale DRAM bandwidth (1/2, 1/4, 1/8) or latency (2x, 4x, 8x)")
	return t, nil
}

// expT2 prints the calibration constants (STREAM and pointer-chase runs).
func expT2(opt ExpOptions) (*Table, error) {
	t := report.New("T2", "Calibrated constant factors",
		"Machine", "CF_bw", "CF_lat", "Peak BW (GB/s)")
	for _, h := range []mem.HMS{hmsBW(0.5), hmsLat(4), hmsOptane()} {
		f := factorsFor(h)
		t.AddRow("DRAM+"+h.Device(0).Name, report.F(f.CFBw), report.F(f.CFLat),
			fmt.Sprintf("%.2f", f.PeakBW/1e9))
	}
	t.Note("factors absorb the sampling undercount (bias %.2f); computed once per machine",
		0.92)
	return t, nil
}

// expE1 reproduces the bandwidth-throttling study: NVM-only performance
// at 1/2, 1/4, 1/8 DRAM bandwidth, one worker per memory system (the
// paper's one-rank-per-node preliminary setup), normalized to DRAM-only.
func expE1(opt ExpOptions) (*Table, error) {
	t := report.New("E1", "NVM-only slowdown vs bandwidth (workers=1)",
		"Workload", "DRAM", "1/2 BW", "1/4 BW", "1/8 BW")
	fracs := []float64{0.5, 0.25, 0.125}
	apps := expApps(opt)
	rows, err := runCells(opt, len(apps), func(i int) ([][]string, error) {
		s := apps[i]
		g := buildApp(s, opt)
		cfg := expConfig(hmsBW(0.5), core.DRAMOnly)
		cfg.Workers = 1
		base := mustRun(g, cfg).Time
		row := []string{s.Name, "1.00"}
		for _, f := range fracs {
			cfg := expConfig(hmsBW(f), core.NVMOnly)
			cfg.Workers = 1
			row = append(row, report.Norm(mustRun(g, cfg).Time, base))
		}
		return oneRow(row...), nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.Note("expected shape: slowdown grows with throttling; streaming workloads suffer most")
	return t, nil
}

// expE2 reproduces the latency-scaling study: 2x, 4x, 8x DRAM latency.
func expE2(opt ExpOptions) (*Table, error) {
	t := report.New("E2", "NVM-only slowdown vs latency (workers=1)",
		"Workload", "DRAM", "2x LAT", "4x LAT", "8x LAT")
	mults := []float64{2, 4, 8}
	apps := expApps(opt)
	if !opt.Quick {
		// The latency experiment includes the pointer chase: the purely
		// latency-bound extreme.
		if s, err := workloads.ByName("pchase"); err == nil {
			apps = append(apps, s)
		}
	}
	rows, err := runCells(opt, len(apps), func(i int) ([][]string, error) {
		s := apps[i]
		g := buildApp(s, opt)
		cfg := expConfig(hmsLat(2), core.DRAMOnly)
		cfg.Workers = 1
		base := mustRun(g, cfg).Time
		row := []string{s.Name, "1.00"}
		for _, m := range mults {
			cfg := expConfig(hmsLat(m), core.NVMOnly)
			cfg.Workers = 1
			row = append(row, report.Norm(mustRun(g, cfg).Time, base))
		}
		return oneRow(row...), nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.Note("expected shape: dependent-access workloads (pchase, gathers) scale with latency; streams do not")
	return t, nil
}

// expE3 reproduces the per-object sensitivity study: place one object
// group in DRAM at a time (everything else in NVM) and compare against
// the DRAM-only and NVM-only bounds, under a bandwidth-limited and a
// latency-limited NVM. Object groups are name prefixes ("A", "p", "U0").
func expE3(opt ExpOptions) (*Table, error) {
	t := report.New("E3", "Per-object placement sensitivity (workers=1)",
		"Workload", "Group", "1/2 BW", "4x LAT")
	names := []string{"cg", "heat"}
	if opt.Quick {
		names = names[:1]
	}
	rows, err := runCells(opt, len(names), func(i int) ([][]string, error) {
		name := names[i]
		s, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		g := buildApp(s, opt)
		groups := objectGroups(g)

		type machine struct {
			h mem.HMS
		}
		machines := []machine{{hmsBW(0.5)}, {hmsLat(4)}}
		base := make([]float64, len(machines))
		nvm := make([]float64, len(machines))
		for i, m := range machines {
			cfg := expConfig(m.h, core.DRAMOnly)
			cfg.Workers = 1
			base[i] = mustRun(g, cfg).Time
			cfg = expConfig(m.h, core.NVMOnly)
			cfg.Workers = 1
			nvm[i] = mustRun(g, cfg).Time
		}
		var rows [][]string
		rows = append(rows, []string{name, "(all in NVM)",
			report.Norm(nvm[0], base[0]), report.Norm(nvm[1], base[1])})
		for _, grp := range groups {
			grp := grp
			row := []string{name, grp + " in DRAM"}
			for i, m := range machines {
				cfg := expConfig(m.h, core.Pinned)
				cfg.Workers = 1
				// Give the pinned group room regardless of the group size;
				// the experiment isolates sensitivity, not capacity.
				cfg.HMS = mem.NewHMS(m.h.Device(1), m.h.Device(0), 1<<40)
				cfg.Pin = func(objName string) bool {
					return groupOf(objName) == grp
				}
				row = append(row, report.Norm(mustRun(g, cfg).Time, base[i]))
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	addRows(t, rows)
	t.Note("a group that helps under 1/2 BW but not 4x LAT is bandwidth-sensitive, and vice versa")
	return t, nil
}

// groupOf strips the index suffix from an object name: "A[3]" -> "A".
func groupOf(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		return name[:i]
	}
	return name
}

// objectGroups lists a graph's object-name groups in declaration order.
func objectGroups(g *Graph) []string {
	var out []string
	seen := map[string]bool{}
	for _, o := range g.Objects {
		grp := groupOf(o.Name)
		if !seen[grp] {
			seen[grp] = true
			out = append(out, grp)
		}
	}
	return out
}
