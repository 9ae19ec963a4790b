package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The equivalence test is the determinism contract of the incremental
// engine: randomized flow/timer soups — mixed fixed and shared stages,
// caps, weights, zero-byte stages, duplicated flows for simultaneous
// completions, completion-chained spawns — replayed through the retained
// reference implementation and the optimized engine must produce the
// same completion sequence with bit-identical times, the same final
// clock, and bit-identical per-resource busy time.

type scenStage struct {
	fixed   float64
	res     int // resource index; -1 for a fixed stage
	bytes   float64
	weight  float64
	maxRate float64
}

type scenFlow struct {
	at      float64 // timer start time; ignored when spawnedBy >= 0
	stages  []scenStage
	spawnBy int // index of the flow whose completion starts this one; -1 for timer start
}

type scenario struct {
	bws    []float64
	flows  []scenFlow
	nops   []float64 // no-op timers
	seed   int64
	maxLen int
}

func genScenario(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed))
	s := scenario{seed: seed}
	nres := 1 + rng.Intn(3)
	for i := 0; i < nres; i++ {
		s.bws = append(s.bws, (0.05+rng.Float64()*2)*1e9)
	}
	nflows := 1 + rng.Intn(40)
	genStages := func() []scenStage {
		n := 1 + rng.Intn(4)
		st := make([]scenStage, n)
		for j := range st {
			if rng.Intn(2) == 0 {
				// Fixed stage; occasionally zero (skipped by the engine).
				f := 0.0
				if rng.Intn(5) > 0 {
					f = float64(1+rng.Intn(100)) * 1e-4
				}
				st[j] = scenStage{fixed: f, res: -1}
			} else {
				res := rng.Intn(nres)
				// Quantized byte counts so distinct flows collide in time.
				bytes := float64(rng.Intn(200)) * 1e5 // may be zero
				w := 0.0
				if rng.Intn(3) == 0 {
					w = float64(1 + rng.Intn(4))
				}
				mr := 0.0
				if rng.Intn(3) == 0 {
					mr = s.bws[res] * (0.05 + rng.Float64()*0.9)
				}
				st[j] = scenStage{res: res, bytes: bytes, weight: w, maxRate: mr}
			}
		}
		return st
	}
	for i := 0; i < nflows; i++ {
		f := scenFlow{at: float64(rng.Intn(100)) * 1e-3, spawnBy: -1}
		if i > 0 && rng.Intn(4) == 0 {
			// Exact duplicate of the previous flow at the same start time:
			// forces simultaneous completions through the tolerance path.
			prev := s.flows[i-1]
			f.at = prev.at
			f.stages = append([]scenStage(nil), prev.stages...)
		} else {
			f.stages = genStages()
		}
		if nflows >= 2 && i >= nflows/2 && rng.Intn(4) == 0 {
			f.spawnBy = rng.Intn(nflows / 2) // started by an earlier flow's OnDone
		}
		s.flows = append(s.flows, f)
	}
	for i := 0; i < rng.Intn(4); i++ {
		s.nops = append(s.nops, float64(rng.Intn(120))*1e-3)
	}
	return s
}

// runObs is one observed completion (or start) with exact time bits.
type runObs struct {
	kind  EventKind
	bits  uint64
	label string
}

// runOptimized runs the scenario on e, which it Resets first.
func runOptimized(e *Engine, s scenario) (end float64, trace []runObs, busy []uint64) {
	e.Reset()
	e.Debug = true
	var res []*Resource
	for i, bw := range s.bws {
		res = append(res, e.AddResource(fmt.Sprintf("r%d", i), bw))
	}
	e.Trace = func(ev Event) {
		trace = append(trace, runObs{ev.Kind, math.Float64bits(ev.Time), ev.Label})
	}
	flows := make([]*Flow, len(s.flows))
	for i, sf := range s.flows {
		f := &Flow{Label: fmt.Sprintf("f%d", i)}
		for _, st := range sf.stages {
			if st.res < 0 {
				f.Stages = append(f.Stages, Stage{Fixed: st.fixed})
			} else {
				f.Stages = append(f.Stages, Stage{
					Res: res[st.res], Bytes: st.bytes, Weight: st.weight, MaxRate: st.maxRate,
				})
			}
		}
		flows[i] = f
	}
	for i, sf := range s.flows {
		i, sf := i, sf
		if sf.spawnBy >= 0 {
			parent := flows[sf.spawnBy]
			child := flows[i]
			prev := parent.OnDone
			parent.OnDone = func(now float64) {
				if prev != nil {
					prev(now)
				}
				e.StartFlow(child)
			}
			continue
		}
		e.At(sf.at, func(now float64) { e.StartFlow(flows[i]) })
	}
	for _, at := range s.nops {
		e.At(at, func(float64) {})
	}
	end = e.Run()
	for _, r := range res {
		busy = append(busy, math.Float64bits(r.BusySec()))
	}
	return end, trace, busy
}

func runReference(s scenario) (end float64, trace []runObs, busy []uint64) {
	e := newRefEngine()
	var res []*refResource
	for i, bw := range s.bws {
		res = append(res, e.AddResource(fmt.Sprintf("r%d", i), bw))
	}
	e.Trace = func(ev Event) {
		trace = append(trace, runObs{ev.Kind, math.Float64bits(ev.Time), ev.Label})
	}
	flows := make([]*refFlow, len(s.flows))
	for i, sf := range s.flows {
		f := &refFlow{Label: fmt.Sprintf("f%d", i)}
		for _, st := range sf.stages {
			if st.res < 0 {
				f.Stages = append(f.Stages, refStage{Fixed: st.fixed})
			} else {
				f.Stages = append(f.Stages, refStage{
					Res: res[st.res], Bytes: st.bytes, Weight: st.weight, MaxRate: st.maxRate,
				})
			}
		}
		flows[i] = f
	}
	for i, sf := range s.flows {
		i, sf := i, sf
		if sf.spawnBy >= 0 {
			parent := flows[sf.spawnBy]
			child := flows[i]
			prev := parent.OnDone
			parent.OnDone = func(now float64) {
				if prev != nil {
					prev(now)
				}
				e.StartFlow(child)
			}
			continue
		}
		e.At(sf.at, func(now float64) { e.StartFlow(flows[i]) })
	}
	for _, at := range s.nops {
		e.At(at, func(float64) {})
	}
	end = e.Run()
	for _, r := range res {
		busy = append(busy, math.Float64bits(r.BusySec()))
	}
	return end, trace, busy
}

// TestEngineEquivalentToReference also runs every scenario a second
// time, on an engine Reset after an unrelated scenario, and requires
// that run to match the new engine's bit for bit: a reset engine behaves
// as a new one.
func TestEngineEquivalentToReference(t *testing.T) {
	const scenarios = 150
	reused := NewEngine()
	for seed := int64(0); seed < scenarios; seed++ {
		s := genScenario(seed)
		gotEnd, gotTrace, gotBusy := runOptimized(NewEngine(), s)
		refEnd, refTrace, refBusy := runReference(s)
		runOptimized(reused, genScenario(seed+scenarios))
		againEnd, againTrace, againBusy := runOptimized(reused, s)
		if math.Float64bits(againEnd) != math.Float64bits(gotEnd) ||
			fmt.Sprint(againTrace, againBusy) != fmt.Sprint(gotTrace, gotBusy) {
			t.Fatalf("seed %d: a reset engine differs from a new one:\nreset %v %v %v\nnew   %v %v %v",
				seed, againEnd, againTrace, againBusy, gotEnd, gotTrace, gotBusy)
		}
		if math.Float64bits(gotEnd) != math.Float64bits(refEnd) {
			t.Fatalf("seed %d: final clock differs: optimized %v (%x) vs reference %v (%x)",
				seed, gotEnd, math.Float64bits(gotEnd), refEnd, math.Float64bits(refEnd))
		}
		if len(gotTrace) != len(refTrace) {
			t.Fatalf("seed %d: event count differs: %d vs %d", seed, len(gotTrace), len(refTrace))
		}
		for i := range gotTrace {
			if gotTrace[i] != refTrace[i] {
				t.Fatalf("seed %d: event %d differs:\noptimized %+v\nreference %+v",
					seed, i, gotTrace[i], refTrace[i])
			}
		}
		for i := range gotBusy {
			if gotBusy[i] != refBusy[i] {
				t.Fatalf("seed %d: resource %d busySec bits differ: %x vs %x",
					seed, i, gotBusy[i], refBusy[i])
			}
		}
	}
}

// TestEngineEquivalenceExercisesTolerance sanity-checks the generator:
// across the corpus, at least one scenario must process simultaneous
// completions in a single event — otherwise the equivalence test would
// not cover the tolerance path.
func TestEngineEquivalenceExercisesTolerance(t *testing.T) {
	sawSimultaneous := false
	for seed := int64(0); seed < 150 && !sawSimultaneous; seed++ {
		s := genScenario(seed)
		_, trace, _ := runOptimized(NewEngine(), s)
		var lastBits uint64
		var lastKind EventKind = EvStart
		for i, ev := range trace {
			if i > 0 && ev.kind == EvDone && lastKind == EvDone && ev.bits == lastBits {
				sawSimultaneous = true
				break
			}
			lastBits, lastKind = ev.bits, ev.kind
		}
	}
	if !sawSimultaneous {
		t.Fatal("no scenario produced simultaneous completions; generator lost its tolerance coverage")
	}
}
