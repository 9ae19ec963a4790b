package prof

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/task"
)

// This file keeps the map-based profiler the dense one in prof.go
// replaced, verbatim apart from its names: refProfiler keys every table
// by kind name, as the runtime's profiler did before it took the task
// graph's dense kind index. TestProfilerMatchesReference and
// FuzzProfiler drive both through the same steps and require identical
// answers bit for bit. The reference shares the package's sampling
// helpers (Config, splitmix64, hashKind, sampleCount, absf): the oracle
// checks the bookkeeping, not the noise model. Its Seen, Kinds and
// BaseInterval methods, which the comparison never reads, are left out.

// refExec is the reference's execution record, keyed by kind name. (The
// original also carried a TaskID that nothing read.)
type refExec struct {
	Kind     string
	Duration float64 // seconds
	Obs      []AccessObs
}

type refKey struct {
	kind string
	obj  task.ObjectID
}

type refAccum struct {
	execs  int
	loads  float64
	stores float64
	bwCons float64
	// mad is the running mean absolute deviation of (loads+stores),
	// the yardstick that separates a pair's normal execution-to-execution
	// variance (halo vs main-operand roles, boundary tasks) from a
	// genuine shift in the kind's behaviour.
	mad float64
	// noiseBase seeds the pair's noise stream; each observation hashes it
	// with its index, so noise is a function of (seed, kind, object,
	// observation count) and never of which task instance was observed.
	noiseBase uint64
	// ivl is the sampling interval the pair's observations were taken at
	// (the kind's interval at last Record), so RelErrorFor reports the
	// error of the stored estimate even after a boosted kind returns to
	// its base rate.
	ivl int64
}

// refKindAccum aggregates a kind's traffic per object byte, the basis of
// the fallback estimate for not-yet-observed (kind, object) pairs.
type refKindAccum struct {
	obsBytes float64
	loads    float64
	stores   float64
	bwCons   float64
	n        int
}

// refProfiler aggregates sampled observations per task kind.
type refProfiler struct {
	cfg       Config
	stats     map[refKey]*refAccum
	kindStats map[string]*refKindAccum
	kindExecs map[string]int
	// kindDur tracks mean profiled duration per kind.
	kindDur map[string]float64
	// stale marks kinds whose profile was re-opened by MarkStale.
	stale map[string]bool
	// kindIvl holds per-kind sampling-interval overrides (adaptive
	// densification); kinds not present sample at cfg.SamplingInterval.
	// Overrides survive MarkStale on purpose — a densified re-profile is
	// the whole point of boosting a kind.
	kindIvl map[string]int64
	// samples accumulates the expected sample count of every recorded
	// observation — the profiling cost the sampling rate buys accuracy
	// with.
	samples float64
	// ord is reusable scratch for canonical observation ordering.
	ord []int32
}

// newRefProfiler returns a refProfiler with the given configuration.
func newRefProfiler(cfg Config) *refProfiler {
	if cfg.SamplingInterval <= 0 {
		cfg.SamplingInterval = 1000
	}
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	if cfg.Bias <= 0 {
		cfg.Bias = 1
	}
	return &refProfiler{
		cfg:       cfg,
		stats:     make(map[refKey]*refAccum),
		kindStats: make(map[string]*refKindAccum),
		kindExecs: make(map[string]int),
		kindDur:   make(map[string]float64),
		stale:     make(map[string]bool),
		kindIvl:   make(map[string]int64),
	}
}

// Profiled reports whether the kind has completed its profiling window.
func (p *refProfiler) Profiled(kind string) bool {
	return p.kindExecs[kind] >= p.cfg.Window && !p.stale[kind]
}

// IntervalFor returns the sampling interval in effect for a kind.
func (p *refProfiler) IntervalFor(kind string) int64 {
	if ivl, ok := p.kindIvl[kind]; ok {
		return ivl
	}
	return p.cfg.SamplingInterval
}

// SetKindInterval overrides one kind's sampling interval (smaller =
// denser = tighter estimates at higher profiling cost). The override
// persists across MarkStale so the densified re-profile it was set for
// actually happens at the new rate.
func (p *refProfiler) SetKindInterval(kind string, interval int64) {
	if interval <= 0 {
		interval = 1
	}
	p.kindIvl[kind] = interval
}

// SamplesTaken returns the cumulative expected sample count across every
// recorded observation — the total profiling cost of the run.
func (p *refProfiler) SamplesTaken() float64 { return p.samples }

// RelErrorFor estimates the current relative error of a pair's stored
// count estimate: the single-observation error at the kind's sampling
// rate, shrunk by the window's averaging. Pairs with no direct
// observation fall back to the kind's per-byte aggregate — mirroring the
// estimate EstimateFor would serve for them — and are infinite only when
// the kind itself has never been seen.
func (p *refProfiler) RelErrorFor(kind string, obj task.ObjectID) float64 {
	if a := p.stats[refKey{kind, obj}]; a != nil && a.execs > 0 {
		count := int64((a.loads + a.stores) / p.cfg.Bias)
		return p.cfg.RelError(count, a.ivl) / math.Sqrt(float64(a.execs))
	}
	ka := p.kindStats[kind]
	if ka == nil || ka.n == 0 || ka.obsBytes <= 0 {
		return math.Inf(1)
	}
	count := int64((ka.loads + ka.stores) / float64(ka.n) / p.cfg.Bias)
	return p.cfg.RelError(count, p.IntervalFor(kind)) / math.Sqrt(float64(ka.n))
}

// Record ingests one profiled execution, applying sampling emulation.
// It returns the largest relative deviation between this execution's
// sampled counts and the previously stored per-pair estimates (0 when no
// prior estimate existed): the count-level drift signal periodic audits
// use to detect workload variation without any duration heuristics.
//
// Observations are folded in ascending object order regardless of how
// e.Obs is laid out, so both the noise stream and the (order-sensitive)
// float accumulation depend only on the multiset of observations — the
// package's order-independence promise.
func (p *refProfiler) Record(e refExec) (maxRelDev float64) {
	p.kindExecs[e.Kind]++
	n := float64(p.kindExecs[e.Kind])
	p.kindDur[e.Kind] += (e.Duration - p.kindDur[e.Kind]) / n
	if p.stale[e.Kind] && p.kindExecs[e.Kind] >= p.cfg.Window {
		delete(p.stale, e.Kind)
	}
	ivl := p.IntervalFor(e.Kind)
	kh := splitmix64(p.cfg.Seed ^ hashKind(e.Kind))
	ord := p.ord[:0]
	for i := range e.Obs {
		ord = append(ord, int32(i))
	}
	for i := 1; i < len(ord); i++ { // stable insertion sort by object ID
		for j := i; j > 0 && e.Obs[ord[j]].Obj < e.Obs[ord[j-1]].Obj; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	p.ord = ord
	for _, oi := range ord {
		o := &e.Obs[oi]
		k := refKey{e.Kind, o.Obj}
		a := p.stats[k]
		if a == nil {
			a = &refAccum{noiseBase: splitmix64(kh ^ uint64(o.Obj))}
			p.stats[k] = a
		}
		a.ivl = ivl
		h := splitmix64(a.noiseBase ^ uint64(a.execs))
		loads := p.cfg.sampleCount(o.Loads, ivl, h)
		stores := p.cfg.sampleCount(o.Stores, ivl, splitmix64(h))
		p.samples += float64(o.Loads+o.Stores) / float64(ivl)
		if a.execs > 0 {
			// Drift score against the pre-update mean: deviation measured
			// by the larger of 3x the pair's historical variability and
			// half its mean; noise-scale pairs are ignored. Scored from
			// the pair's second observation on — a Window=2 kind can flag
			// drift on its very next (third) execution.
			mean := a.loads + a.stores
			delta := absf(float64(loads+stores) - mean)
			if mean > 100 || float64(loads+stores) > 100 {
				threshold := 3 * a.mad
				if half := 0.5 * mean; half > threshold {
					threshold = half
				}
				if threshold > 0 {
					if score := delta / threshold; score > maxRelDev {
						maxRelDev = score
					}
				}
			}
			a.mad += (delta - a.mad) / float64(a.execs)
		}
		a.execs++
		m := float64(a.execs)
		a.loads += (float64(loads) - a.loads) / m
		a.stores += (float64(stores) - a.stores) / m
		// Equation (1): accessed bytes over the active fraction of time.
		bw := 0.0
		if o.TimeShare > 0 && e.Duration > 0 {
			bytes := float64(loads+stores) * 64
			bw = bytes / (o.TimeShare * e.Duration)
		}
		a.bwCons += (bw - a.bwCons) / m

		if o.Size > 0 {
			ka := p.kindStats[e.Kind]
			if ka == nil {
				ka = &refKindAccum{}
				p.kindStats[e.Kind] = ka
			}
			ka.obsBytes += float64(o.Size)
			ka.loads += float64(loads)
			ka.stores += float64(stores)
			ka.n++
			ka.bwCons += (bw - ka.bwCons) / float64(ka.n)
		}
	}
	return maxRelDev
}

// EstimateFor returns the profile for a (kind, object) pair, falling back
// to the kind's per-byte traffic rates scaled by the object's size when
// the exact pair has not been observed. The task annotations make the
// fallback sound: same-kind tasks run the same code over same-shaped
// regions, so traffic scales with region size to first order.
func (p *refProfiler) EstimateFor(kind string, obj task.ObjectID, size int64) (Estimate, bool) {
	if est, ok := p.Estimate(kind, obj); ok {
		return est, true
	}
	ka := p.kindStats[kind]
	if ka == nil || ka.obsBytes <= 0 {
		return Estimate{}, false
	}
	return Estimate{
		Loads:  ka.loads / ka.obsBytes * float64(size),
		Stores: ka.stores / ka.obsBytes * float64(size),
		BWCons: ka.bwCons,
	}, true
}

// Estimate returns the profile for a (kind, object) pair.
func (p *refProfiler) Estimate(kind string, obj task.ObjectID) (Estimate, bool) {
	a, ok := p.stats[refKey{kind, obj}]
	if !ok || a.execs == 0 {
		return Estimate{}, false
	}
	return Estimate{Loads: a.loads, Stores: a.stores, BWCons: a.bwCons}, true
}

// MarkStale re-opens the profiling window for a kind. Per-kind sampling
// overrides persist; the pair noise streams restart at observation zero
// (re-profiling the same counts at the same rate reproduces the same
// noise — determinism, not amnesia).
func (p *refProfiler) MarkStale(kind string) {
	p.stale[kind] = true
	p.kindExecs[kind] = 0
	p.kindDur[kind] = 0
	delete(p.kindStats, kind)
	for k := range p.stats {
		if k.kind == kind {
			delete(p.stats, k)
		}
	}
}

// MeanDuration returns the mean profiled execution time of a kind.
func (p *refProfiler) MeanDuration(kind string) (float64, bool) {
	d, ok := p.kindDur[kind]
	return d, ok && d > 0
}

// profStep is one operation both profilers are driven through.
type profStep struct {
	op   int // stepRecord, stepStale or stepInterval
	kind int
	ivl  int64
	dur  float64
	obs  []AccessObs
}

const (
	stepRecord = iota
	stepStale
	stepInterval
)

// profScenario is a profiler configuration, a kind list, an object count
// and the steps to run.
type profScenario struct {
	cfg   Config
	kinds []string
	nobj  int
	steps []profStep
}

// byteSrc reads scenario choices from a byte string, zeros past its end.
type byteSrc struct{ b []byte }

func (s *byteSrc) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func pick[T any](s *byteSrc, from []T) T { return from[int(s.next())%len(from)] }

// decodeScenario turns bytes into a scenario. The first byte picks the
// configuration: DefaultConfig, its Exact form, or a random jitter,
// sampling interval (non-positive ones included), window and seed.
// Records carry 0-8 observations with repeated and unsorted objects,
// zero sizes and zero time shares; interval overrides include values
// <= 0.
func decodeScenario(b []byte) profScenario {
	s := &byteSrc{b}
	var sc profScenario
	switch s.next() % 3 {
	case 0:
		sc.cfg = DefaultConfig()
	case 1:
		sc.cfg = DefaultConfig().Exact()
	default:
		sc.cfg = DefaultConfig()
		sc.cfg.Jitter = float64(s.next()) / 128
		sc.cfg.SamplingInterval = pick(s, []int64{-3, 0, 1, 3, 250, 1000, 4096, 1 << 20})
		sc.cfg.Window = pick(s, []int{-1, 0, 1, 2, 3, 5})
		for i := 0; i < 8; i++ {
			sc.cfg.Seed = sc.cfg.Seed<<8 | uint64(s.next())
		}
	}
	names := []string{"gemm", "potrf", "trsm", "syrk", "k", "a", ""}
	first, nk := int(s.next()), 1+int(s.next())%4
	for i := 0; i < nk; i++ {
		sc.kinds = append(sc.kinds, names[(first+i)%len(names)])
	}
	sc.nobj = 1 + int(s.next())%6
	counts := []int64{0, 1, 50, 999, 1e4, 3e5, 1e6, 1e7}
	for len(s.b) > 0 && len(sc.steps) < 256 {
		st := profStep{kind: int(s.next()) % len(sc.kinds)}
		switch op := s.next() % 8; {
		case op < 5:
			st.op = stepRecord
			st.dur = pick(s, []float64{0, 1e-6, 0.002, 0.01, 0.016, 0.05, 1})
			for n := int(s.next()) % 9; n > 0; n-- {
				st.obs = append(st.obs, AccessObs{
					Obj:       task.ObjectID(int(s.next()) % sc.nobj),
					Loads:     pick(s, counts),
					Stores:    pick(s, counts),
					Size:      pick(s, []int64{0, 64, 1 << 20, 3 << 20}),
					TimeShare: pick(s, []float64{0, 0.1, 0.5, 1}),
				})
			}
		case op < 6:
			st.op = stepStale
		default:
			st.op = stepInterval
			st.ivl = pick(s, []int64{-7, 0, 1, 2, 125, 1000, 8000})
		}
		sc.steps = append(sc.steps, st)
	}
	return sc
}

// checkScenario runs a scenario through the dense profiler and the
// map-based reference and fails on the first answer that differs.
func checkScenario(tb testing.TB, sc profScenario) {
	tb.Helper()
	p := New(sc.cfg, sc.kinds, sc.nobj)
	ref := newRefProfiler(sc.cfg)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, st := range sc.steps {
		name := sc.kinds[st.kind]
		switch st.op {
		case stepRecord:
			// Both get their own copy: neither may depend on the other's
			// view of the observation order.
			got := p.Record(Exec{Kind: st.kind, Duration: st.dur, Obs: append([]AccessObs(nil), st.obs...)})
			want := ref.Record(refExec{Kind: name, Duration: st.dur, Obs: append([]AccessObs(nil), st.obs...)})
			if !same(got, want) {
				tb.Fatalf("step %d: Record(%d) = %v, reference %v", i, st.kind, got, want)
			}
		case stepStale:
			p.MarkStale(st.kind)
			ref.MarkStale(name)
		case stepInterval:
			p.SetKindInterval(st.kind, st.ivl)
			ref.SetKindInterval(name, st.ivl)
		}
		if got, want := p.SamplesTaken(), ref.SamplesTaken(); !same(got, want) {
			tb.Fatalf("step %d: SamplesTaken = %v, reference %v", i, got, want)
		}
		for k, name := range sc.kinds {
			if got, want := p.Profiled(k), ref.Profiled(name); got != want {
				tb.Fatalf("step %d kind %d: Profiled = %v, reference %v", i, k, got, want)
			}
			if got, want := p.IntervalFor(k), ref.IntervalFor(name); got != want {
				tb.Fatalf("step %d kind %d: IntervalFor = %d, reference %d", i, k, got, want)
			}
			gd, gok := p.MeanDuration(k)
			wd, wok := ref.MeanDuration(name)
			if gok != wok || !same(gd, wd) {
				tb.Fatalf("step %d kind %d: MeanDuration = %v %v, reference %v %v", i, k, gd, gok, wd, wok)
			}
			for obj := task.ObjectID(0); int(obj) < sc.nobj; obj++ {
				_, wok := ref.Estimate(name, obj)
				if got := p.Observed(k, obj); got != wok {
					tb.Fatalf("step %d pair (%d, %d): Observed = %v, reference Estimate ok %v", i, k, obj, got, wok)
				}
				if got, want := p.RelErrorFor(k, obj), ref.RelErrorFor(name, obj); !same(got, want) {
					tb.Fatalf("step %d pair (%d, %d): RelErrorFor = %v, reference %v", i, k, obj, got, want)
				}
				size := int64(obj+1) << 16
				ge, gok := p.EstimateFor(k, obj, size)
				we, wok := ref.EstimateFor(name, obj, size)
				if gok != wok || !same(ge.Loads, we.Loads) || !same(ge.Stores, we.Stores) || !same(ge.BWCons, we.BWCons) {
					tb.Fatalf("step %d pair (%d, %d): EstimateFor = %+v %v, reference %+v %v", i, k, obj, ge, gok, we, wok)
				}
			}
		}
	}
}

// TestProfilerMatchesReference drives the dense profiler and the
// map-based reference through seeded step sequences under DefaultConfig,
// its Exact form and random configurations, comparing every query for
// every kind and object after every step.
func TestProfilerMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 64+rng.Intn(1024))
		rng.Read(b)
		b[0] = byte(seed % 3) // cycle the three configuration kinds
		checkScenario(t, decodeScenario(b))
	}
}

// FuzzProfiler decodes arbitrary bytes into the same steps.
func FuzzProfiler(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 96)
		rng.Read(b)
		b[0] = byte(seed % 3)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkScenario(t, decodeScenario(b))
	})
}
