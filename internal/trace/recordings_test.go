package trace_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestWriteJSONLMatchesReferenceOnRecordings pins the wire bytes of real
// runs: every workload under every policy, on a two-tier bandwidth-
// degraded machine, a three-tier Optane+CXL machine and a latency-
// degraded machine, each without and with an injected fault schedule,
// writes exactly what encoding/json wrote, and reads back equal.
func TestWriteJSONLMatchesReferenceOnRecordings(t *testing.T) {
	var runs, lines, faults int
	for _, spec := range workloads.All() {
		g := spec.Build(workloads.Params{Scale: 4}).Graph
		var footprint int64
		for _, o := range g.Objects {
			footprint += o.Size
		}
		machines := []mem.HMS{
			mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), footprint/4),
			mem.DRAMCXLNVM(footprint/4, footprint/4),
			mem.NewHMS(mem.DRAM(), mem.NVMLatency(4), footprint/4),
		}
		for _, name := range core.PolicyNames() {
			pol, err := core.PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range machines {
				cfg := core.DefaultConfig(h)
				cfg.Policy, cfg.Workers = pol, 4
				for _, faulty := range []bool{false, true} {
					var tr trace.Trace
					cfg.Trace = &tr
					res, err := core.Run(g, cfg)
					if err != nil {
						t.Fatalf("%s/%s/%d tiers: %v", g.Name, name, h.NumTiers(), err)
					}
					checkWire(t, fmt.Sprintf("%s/%s/%d-tier/faults=%v", g.Name, name, h.NumTiers(), faulty), &tr)
					runs++
					lines += tr.Len() + len(tr.Dispatches)
					faults += res.FaultEvents
					// About 40 faults over the fault-free makespan.
					fs := fmt.Sprintf("rate=%g,seed=7,horizon=%g,tiers=%d", 40/res.Time, res.Time, h.NumTiers())
					if cfg.Faults, err = fault.ParseSpec(fs); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if faults == 0 {
		t.Fatal("no fault fired; the faulty half is vacuous")
	}
	t.Logf("%d recordings, %d lines, %d fault events", runs, lines, faults)
}

func checkWire(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	var got, want bytes.Buffer
	if err := tr.WriteJSONL(&got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := trace.RefWriteJSONL(tr, &want); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: wire bytes differ from encoding/json at byte %d", name, firstDiff(got.Bytes(), want.Bytes()))
	}
	back, err := trace.ReadJSONL(&got)
	if err != nil {
		t.Fatalf("%s: read back: %v", name, err)
	}
	if !reflect.DeepEqual(back.Events, tr.Events) || !reflect.DeepEqual(back.Dispatches, tr.Dispatches) {
		t.Fatalf("%s: read back differs from the recording", name)
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
