package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSameSeedSameOpList(t *testing.T) {
	for _, w := range workloadNames {
		a, err := makeOps(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeOps(w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew two different op lists", w)
		}
		c, _ := makeOps(w, 8)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew the same op list", w)
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := makeOps("suite", 1); err == nil {
		t.Fatal("an unknown workload was accepted")
	}
}

// TestSameSeedSameSlowdown sets each workload up twice from one seed:
// the verification passes, and so sim_slowdown, must agree bit for bit.
func TestSameSeedSameSlowdown(t *testing.T) {
	for _, w := range workloadNames {
		ops, _ := makeOps(w, 3)
		a, err := setup(w, ops, nil)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		a.close()
		ops2, _ := makeOps(w, 3)
		b, err := setup(w, ops2, nil)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b.close()
		if math.Float64bits(a.slowdown) != math.Float64bits(b.slowdown) || !sameRefs(a, b) {
			t.Errorf("%s: two set-ups from seed 3 disagree (sim_slowdown %v vs %v)", w, a.slowdown, b.slowdown)
		}
		if a.slowdown < 1 {
			t.Errorf("%s: sim_slowdown %v below the DRAM-only bound", w, a.slowdown)
		}
	}
}

// TestForcedMismatchCounted corrupts one reference outcome and checks
// the timed loop counts that op as failed.
func TestForcedMismatchCounted(t *testing.T) {
	for _, w := range workloadNames {
		ops, _ := makeOps(w, 5)
		s, err := setup(w, ops, nil)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		s.refs[0].Bits ^= 1
		r := s.loop(50*time.Millisecond, nil)
		s.close()
		if r.failed < 1 || !errors.Is(r.firstErr, errMismatch) {
			t.Errorf("%s: corrupted reference gave %d failed ops (first error %v)", w, r.failed, r.firstErr)
		}
		if r.failed > (len(r.ops)+len(ops)-1)/len(ops) {
			t.Errorf("%s: %d of %d ops failed; only op 0 was corrupted", w, r.failed, len(r.ops))
		}
	}
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestPrintedNamesMatchBenchmarkJSON runs every workload briefly in both
// modes and checks the metrics printed are exactly the ones declared,
// with the declared units.
func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", declared, workloadNames)
	}
	want := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, e := range list {
			m[e.Name] = e.Unit
		}
		return m
	}
	check := func(w, mode string, got map[string]metric, want map[string]string) {
		for name, m := range got {
			if u, ok := want[name]; !ok || u != m.Unit {
				t.Errorf("%s %s: printed %s [%s], BENCHMARK.json has [%s] (declared: %v)", w, mode, name, m.Unit, u, ok)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s %s: %s declared but not printed", w, mode, name)
			}
		}
	}
	for _, w := range workloadNames {
		ops, _ := makeOps(w, 1)
		res, err := runMeasured(w, ops, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: measured run correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		check(w, "measured", res.Metrics, want(bj.EndToEnd))
		res, err = runTraced(w, ops, 0.2, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: traced run correct=%v failed=%d", w, res.Correct, res.Failed)
		}
		check(w, "traced", res.Metrics, want(bj.PerLayer))
	}
}

// TestReferenceAllocatesNothing pins that the reference never feeds the
// GC, so the program's GC work is not in the reference's time.
func TestReferenceAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { hostRef.measure() }); n != 0 {
		t.Errorf("the reference allocates %v times per measurement", n)
	}
}

// TestScalesByWindow checks each op is scaled by the reference median of
// its own window, or by the whole loop's where its window has too few
// reference runs.
func TestScalesByWindow(t *testing.T) {
	var r run
	for k := 0; k < minRefs; k++ {
		r.refAt, r.refMS = append(r.refAt, 0.5), append(r.refMS, 2*refNominalMS) // window 0: twice as slow
	}
	for k := 0; k < minRefs+5; k++ {
		r.refAt, r.refMS = append(r.refAt, 1.5), append(r.refMS, refNominalMS) // window 1: at rest
	}
	r.refAt, r.refMS = append(r.refAt, 2.5), append(r.refMS, 100*refNominalMS) // window 2: one run only
	r.ops = []opTime{{at: 0.9}, {at: 1.1}, {at: 2.6}}
	got := r.scales()
	want := []float64{0.5, 1, 1} // the whole loop's median is the at-rest time
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-12 {
			t.Errorf("op %d scaled by %v, want %v", k, got[k], want[k])
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	sort.Float64s(v)
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
