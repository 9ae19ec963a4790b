// Command tahoe-replay records a run of the simulated runtime to a JSONL
// recording and replays recorded schedules under different machines or
// policies, isolating placement effects from scheduling: the replayed
// run pops tasks in exactly the recorded order, so any delta against the
// recording is attributable to placement alone.
//
// Usage:
//
//	tahoe-replay -record rec.jsonl -workload cg -policy tahoe
//	tahoe-replay -replay rec.jsonl -policy nvm
//	tahoe-replay -replay rec.jsonl -nvm bw:0.25
//	tahoe-replay -check -workload heat
//
// -record runs the workload with recording enabled and saves the
// recording (add -csv to also export the event log as CSV). -replay
// loads it, re-runs the schedule under the recording's own policy as a
// fidelity baseline, then under the requested variant, and prints a
// side-by-side delta table. -check performs an in-memory record →
// save → load → replay round trip and fails unless the replay is
// bit-identical — the determinism smoke test used by CI tooling.
package main

import (
	"flag"
	"fmt"
	"os"

	tahoe "repro"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/task"
	"strings"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tahoe-replay: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		record   = flag.String("record", "", "record the workload and save the recording to this file")
		replayF  = flag.String("replay", "", "load a recording from this file and replay it")
		check    = flag.Bool("check", false, "in-memory record/save/load/replay fidelity check")
		workload = flag.String("workload", "cg", "workload name (-record and -check)")
		policy   = flag.String("policy", "tahoe", "placement policy (recorded or replayed)")
		machine  = cliutil.MachineFlags(flag.CommandLine)
		workers  = flag.Int("workers", 8, "simulated workers")
		csvPath  = flag.String("csv", "", "with -record: also export the event log as CSV here")
		faults   = flag.String("faults", "", `fault schedule for -record/-check, e.g. "rate=1,seed=7,horizon=2"`)
		sampling = flag.String("sampling", "", `profiler sampling, e.g. "interval=100000,jitter=0.4,adaptive" ("" = defaults)`)
		feedback = flag.String("feedback", "", `observed-vs-predicted correction loop: "on" ("" = off)`)
	)
	flag.Parse()

	modes := 0
	for _, on := range []bool{*record != "", *replayF != "", *check} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fail("choose exactly one of -record, -replay, -check")
	}
	p, err := cliutil.ParsePolicy(*policy)
	if err != nil {
		fail("%v", err)
	}
	// Faults apply when recording; a replay reconstructs the schedule
	// from the recording's metadata instead.
	fsched, err := cliutil.ParseFaults(*faults)
	if err != nil {
		fail("%v", err)
	}
	h, err := machine.Build()
	if err != nil {
		fail("%v", err)
	}

	buildCfg := func(pol tahoe.Policy) core.Config {
		f, err := tahoe.Calibrate(h, tahoe.DefaultProfiler())
		if err != nil {
			fail("calibrate: %v", err)
		}
		cfg := tahoe.DefaultConfig(h)
		cfg.Policy = pol
		cfg.Workers = *workers
		cfg.CFBw, cfg.CFLat = f.CFBw, f.CFLat
		if pc, err := cliutil.ParseSampling(*sampling, cfg.Prof); err != nil {
			fail("%v", err)
		} else {
			cfg.Prof = pc
		}
		if fc, err := cliutil.ParseFeedback(*feedback, cfg.Feedback); err != nil {
			fail("%v", err)
		} else {
			cfg.Feedback = fc
		}
		return cfg
	}
	buildGraph := func(name string) *task.Graph {
		w, err := tahoe.BuildWorkload(name, tahoe.WorkloadParams{})
		if err != nil {
			fail("%v", err)
		}
		return w.Graph
	}

	switch {
	case *record != "":
		g := buildGraph(*workload)
		cfg := buildCfg(p)
		cfg.Faults = fsched
		res, rec, err := tahoe.Record(g, cfg)
		if err != nil {
			fail("record: %v", err)
		}
		f, err := os.Create(*record)
		if err != nil {
			fail("%v", err)
		}
		if err := rec.Save(f); err != nil {
			fail("save: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		if *csvPath != "" {
			cf, err := os.Create(*csvPath)
			if err != nil {
				fail("%v", err)
			}
			if err := rec.Trace.WriteCSV(cf); err != nil {
				fail("csv: %v", err)
			}
			if err := cf.Close(); err != nil {
				fail("%v", err)
			}
		}
		fmt.Printf("recorded %s under %s: %.4f s, %d dispatches, %d events -> %s\n",
			*workload, res.Policy, res.Time, len(rec.Trace.Dispatches), rec.Trace.Len(), *record)

	case *replayF != "":
		f, err := os.Open(*replayF)
		if err != nil {
			fail("%v", err)
		}
		rec, err := replay.Load(f)
		f.Close()
		if err != nil {
			fail("load: %v", err)
		}
		g := buildGraph(rec.Meta.Workload)
		recordedPolicy := tahoe.Tahoe
		found := false
		for _, name := range core.PolicyNames() {
			if pol, err := core.PolicyByName(name); err == nil && pol.String() == rec.Meta.Policy {
				recordedPolicy, found = pol, true
				break
			}
		}
		if !found {
			fail("recording's policy %q unknown to this binary", rec.Meta.Policy)
		}
		// Baseline: the recorded schedule under its own policy on the
		// machine given by the flags — bit-identical to the original run
		// when the flags match the recording machine.
		base, err := tahoe.Replay(g, buildCfg(recordedPolicy), rec)
		if err != nil {
			fail("baseline replay: %v", err)
		}
		variant, err := tahoe.Replay(g, buildCfg(p), rec)
		if err != nil {
			fail("replay: %v", err)
		}
		tb := report.New("replay", fmt.Sprintf("%s: recorded schedule (%s) replayed under %s",
			rec.Meta.Workload, rec.Meta.Policy, variant.Policy),
			"metric", rec.Meta.Policy+" (recorded)", variant.Policy+" (replayed)", "ratio")
		tb.AddRow("makespan (s)", report.Sec(base.Time), report.Sec(variant.Time), report.Norm(variant.Time, base.Time))
		tb.AddRow("migrations", report.Int(base.Migration.Migrations), report.Int(variant.Migration.Migrations), "")
		tb.AddRow("failed migrations", report.Int(base.Migration.Failed()), report.Int(variant.Migration.Failed()), "")
		tb.AddRow("bytes moved (MB)", report.MB(base.Migration.BytesMoved), report.MB(variant.Migration.BytesMoved), "")
		tb.AddRow("exposed copy (s)", report.Sec(base.Migration.ExposedSec), report.Sec(variant.Migration.ExposedSec), "")
		tb.AddRow("energy (J)", report.F(base.EnergyJ), report.F(variant.EnergyJ), report.Norm(variant.EnergyJ, base.EnergyJ))
		tb.Note("schedule pinned to %d recorded dispatches; deltas are placement-only", len(rec.Trace.Dispatches))
		if err := tb.Render(os.Stdout); err != nil {
			fail("%v", err)
		}

	case *check:
		g := buildGraph(*workload)
		cfg := buildCfg(p)
		cfg.Faults = fsched
		orig, rec, err := tahoe.Record(g, cfg)
		if err != nil {
			fail("record: %v", err)
		}
		var buf strings.Builder
		if err := rec.Save(&buf); err != nil {
			fail("save: %v", err)
		}
		loaded, err := replay.Load(strings.NewReader(buf.String()))
		if err != nil {
			fail("load: %v", err)
		}
		again, err := tahoe.Replay(g, cfg, loaded)
		if err != nil {
			fail("replay: %v", err)
		}
		if orig != again {
			fail("fidelity violated:\nrecorded: %+v\nreplayed: %+v", orig, again)
		}
		fmt.Printf("fidelity ok: %s under %s, %.4f s, %d migrations reproduced bit-identically\n",
			*workload, orig.Policy, orig.Time, orig.Migration.Migrations)
	}
}
