// Package prof emulates the online, hardware-counter-based phase profiling
// the runtime performs: during the first executions of each task kind, the
// per-object load and store counts are sampled (PEBS/IBS style, loads and
// stores counted separately because NVM read/write asymmetry matters), and
// each object's main-memory bandwidth consumption is estimated from the
// fraction of samples that hit it — the paper's equation (1).
//
// The emulation injects what real sampling injects: a systematic
// undercount (the constant factors CF_bw/CF_lat exist to calibrate it
// away) and deterministic jitter whose magnitude depends on the sampling
// rate — Jitter/sqrt(expected samples), widening without bound as the
// expected sample count drops below one (capped at MaxRelError), which is
// the law-of-large-numbers behaviour of real sampled counters. All noise
// derives from a splitmix64 hash of (seed, kind, object, observation
// index), so profiles are reproducible and independent of execution
// order: the same multiset of observations produces bit-identical
// estimates no matter which task instances landed in the window or how
// their access lists were ordered.
//
// Sampling rates are per task kind: SetKindInterval lets the runtime's
// adaptive controller densify sampling only for the kinds whose placement
// is noise-sensitive, and SamplesTaken totals the expected sample count
// so that rate choices have a visible cost.
//
// A Profiler serves one task graph and speaks its dense indices: kinds
// are task.Graph.KindIndex values and objects are task.ObjectIDs. Per-kind
// state is one slice entry and the (kind, object) accumulators one
// kind-major slice; a kind's name only seeds its noise streams.
package prof

import (
	"math"

	"repro/internal/task"
)

// Config controls the sampling emulation.
type Config struct {
	// SamplingInterval is the mean number of memory accesses between
	// samples (the paper samples every 1000 CPU cycles; at roughly one
	// access per cycle for memory-bound phases this is the same knob).
	SamplingInterval int64
	// Bias is the systematic fraction of true traffic the sampled counts
	// capture (< 1: sampling undercounts). CF calibration corrects it.
	Bias float64
	// Jitter is the relative magnitude of per-observation noise at one
	// expected sample; the effective relative error is
	// Jitter/sqrt(expected samples) (see RelError).
	Jitter float64
	// Seed makes all noise deterministic.
	Seed uint64
	// Window is how many executions of a task kind are profiled before
	// the kind is considered known (the paper profiles the first two
	// iterations of the main loop).
	Window int
	// Adaptive enables the runtime's margin-driven sampling controller:
	// after each plan, kinds whose objects sit within profile noise of a
	// placement flip get a densified sampling interval and a re-profile.
	// Off by default; fixed-rate runs are bit-identical to builds that
	// predate the controller.
	Adaptive bool
}

// DefaultSamplingInterval is the paper's PEBS-class sampling rate — and
// the rate the runtime's profiling-overhead fraction is calibrated at.
const DefaultSamplingInterval = 1000

// DefaultConfig matches the paper's setup: 1000-access sampling interval,
// a mild undercount, and a two-execution profiling window.
func DefaultConfig() Config {
	return Config{
		SamplingInterval: DefaultSamplingInterval,
		Bias:             0.92,
		Jitter:           0.05,
		Seed:             1,
		Window:           2,
	}
}

// Exact returns the configuration with sampling noise and adaptation
// disabled — the ground-truth profiler that regret harnesses plan from.
// Bias stays: it is systematic, and calibration absorbs it either way.
func (c Config) Exact() Config {
	c.Jitter = 0
	c.Adaptive = false
	return c
}

// splitmix64 is the standard 64-bit mix function; deterministic noise
// without importing math/rand keeps profiles stable across Go versions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashKind is FNV-1a over the kind name, the string half of the noise key.
func hashKind(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// unitNoise maps a hash to a deterministic value in [-1, 1).
func unitNoise(h uint64) float64 {
	return float64(h>>11)/float64(1<<53)*2 - 1
}

// MaxRelError caps the modeled relative error of a single observation: a
// count estimated from a vanishing fraction of one expected sample is
// garbage, but bounded garbage (the estimate cannot go negative and the
// profiler still averages over the window).
const MaxRelError = 1.0

// minExpectedSamples floors the sample count inside RelError so the
// error stays finite as counts shrink toward zero.
const minExpectedSamples = 1.0 / 1024

// RelError returns the modeled relative error magnitude of one sampled
// observation of trueCount events at the given sampling interval:
// Jitter/sqrt(expected samples). Unlike hardware, the emulation knows the
// true count; callers estimating their own error from sampled counts get
// the same monotone behaviour. The error keeps widening below one
// expected sample — a fraction of one sample cannot produce a tight
// estimate — up to MaxRelError.
func (c Config) RelError(trueCount, interval int64) float64 {
	if trueCount <= 0 || c.Jitter <= 0 {
		return 0
	}
	if interval <= 0 {
		interval = 1000
	}
	samples := float64(trueCount) / float64(interval)
	if samples < minExpectedSamples {
		samples = minExpectedSamples
	}
	rel := c.Jitter / math.Sqrt(samples)
	if rel > MaxRelError {
		rel = MaxRelError
	}
	return rel
}

// Sample exposes the sampling emulation for offline calibration: it
// returns the sampled estimate of a true event count, keyed for
// deterministic noise, at the configuration's base sampling interval.
func (c Config) Sample(trueCount int64, key uint64) int64 {
	return c.sampleCount(trueCount, c.SamplingInterval, splitmix64(c.Seed^key))
}

// sampleCount emulates counter sampling of a true event count: apply the
// systematic bias, then rate-dependent jitter per RelError.
func (c Config) sampleCount(trueCount, interval int64, h uint64) int64 {
	if trueCount <= 0 {
		return 0
	}
	rel := c.RelError(trueCount, interval)
	est := float64(trueCount) * c.Bias * (1 + rel*unitNoise(h))
	if est < 0 {
		est = 0
	}
	return int64(est + 0.5)
}

// AccessObs is the ground truth the simulator exposes for one task's use
// of one object; the profiler turns it into a noisy observation.
type AccessObs struct {
	Obj    task.ObjectID
	Loads  int64
	Stores int64
	// Size is the object's byte size, known to the runtime from the
	// task's access annotation; it lets profiles generalize across
	// same-kind tasks touching different (but same-shaped) objects.
	Size int64
	// TimeShare is the fraction of the task's execution during which this
	// object's memory accesses were in flight; the sampled analog of
	// "#samples with data accesses / #samples" in equation (1).
	TimeShare float64
}

// Exec is one profiled task execution. Kind is the task's index into
// the kind list the Profiler was built with (task.Graph.KindIndex).
type Exec struct {
	Kind     int
	Duration float64 // seconds
	Obs      []AccessObs
}

// Estimate is the profiler's per-(kind, object) output, averaged over the
// profiling window: sampled per-execution loads and stores, and the
// equation-(1) bandwidth-consumption estimate in bytes/second.
type Estimate struct {
	Loads  float64
	Stores float64
	BWCons float64
}

type accum struct {
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

// kindAccum aggregates a kind's traffic per object byte, the basis of
// the fallback estimate for not-yet-observed (kind, object) pairs.
type kindAccum struct {
	obsBytes float64
	loads    float64
	stores   float64
	bwCons   float64
	n        int
}

// kindState is one kind's profile bookkeeping.
type kindState struct {
	// noise is splitmix64(seed ^ hashKind(name)): the kind name's only
	// role in the profiler is to key the noise streams.
	noise uint64
	execs int
	// dur is the mean profiled duration.
	dur float64
	// stale marks a profile re-opened by MarkStale.
	stale bool
	// ivl is the sampling-interval override (adaptive densification); 0
	// samples at cfg.SamplingInterval. It survives MarkStale on purpose —
	// a densified re-profile is the whole point of boosting a kind.
	ivl int64
	agg kindAccum
}

// Profiler aggregates sampled observations per task kind. Kinds and
// objects are the graph's dense indices; every query takes them.
type Profiler struct {
	cfg   Config
	nobj  int
	kinds []kindState
	// pairs holds the (kind, object) accumulators kind-major, at
	// kind*nobj+obj; nil marks a pair with no observation.
	pairs []*accum
	// samples accumulates the expected sample count of every recorded
	// observation — the profiling cost the sampling rate buys accuracy
	// with.
	samples float64
	// ord is reusable scratch for canonical observation ordering.
	ord []int32
}

// New returns a Profiler for a graph with the given kinds (in kind-index
// order, task.Graph.Kinds) and nobj objects.
func New(cfg Config, kinds []string, nobj int) *Profiler {
	if cfg.SamplingInterval <= 0 {
		cfg.SamplingInterval = 1000
	}
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	if cfg.Bias <= 0 {
		cfg.Bias = 1
	}
	p := &Profiler{
		cfg:   cfg,
		nobj:  nobj,
		kinds: make([]kindState, len(kinds)),
		pairs: make([]*accum, len(kinds)*nobj),
	}
	for k, name := range kinds {
		p.kinds[k].noise = splitmix64(cfg.Seed ^ hashKind(name))
	}
	return p
}

// Profiled reports whether kind k has completed its profiling window.
func (p *Profiler) Profiled(k int) bool {
	ks := &p.kinds[k]
	return ks.execs >= p.cfg.Window && !ks.stale
}

// row returns kind k's pair accumulators, indexed by object.
func (p *Profiler) row(k int) []*accum { return p.pairs[k*p.nobj : (k+1)*p.nobj] }

// pair returns the (kind, object) accumulator; nil when unobserved.
func (p *Profiler) pair(k int, obj task.ObjectID) *accum { return p.pairs[k*p.nobj+int(obj)] }

// Observed reports whether the (kind, object) pair has a profiled
// observation since the kind's profile last opened.
func (p *Profiler) Observed(k int, obj task.ObjectID) bool { return p.pair(k, obj) != nil }

// BaseInterval returns the configuration's (normalized) sampling interval.
func (p *Profiler) BaseInterval() int64 { return p.cfg.SamplingInterval }

// IntervalFor returns the sampling interval in effect for kind k.
func (p *Profiler) IntervalFor(k int) int64 {
	if ivl := p.kinds[k].ivl; ivl > 0 {
		return ivl
	}
	return p.cfg.SamplingInterval
}

// SetKindInterval overrides kind k's sampling interval (smaller =
// denser = tighter estimates at higher profiling cost). The override
// persists across MarkStale so the densified re-profile it was set for
// actually happens at the new rate.
func (p *Profiler) SetKindInterval(k int, interval int64) {
	p.kinds[k].ivl = max(interval, 1)
}

// SamplesTaken returns the cumulative expected sample count across every
// recorded observation — the total profiling cost of the run.
func (p *Profiler) SamplesTaken() float64 { return p.samples }

// RelErrorFor estimates the current relative error of a pair's stored
// count estimate: the single-observation error at the kind's sampling
// rate, shrunk by the window's averaging. Pairs with no direct
// observation fall back to the kind's per-byte aggregate — mirroring the
// estimate EstimateFor would serve for them — and are infinite only when
// the kind itself has never been seen.
func (p *Profiler) RelErrorFor(k int, obj task.ObjectID) float64 {
	if a := p.pair(k, obj); a != nil {
		count := int64((a.loads + a.stores) / p.cfg.Bias)
		return p.cfg.RelError(count, a.ivl) / math.Sqrt(float64(a.execs))
	}
	ka := &p.kinds[k].agg
	if ka.n == 0 || ka.obsBytes <= 0 {
		return math.Inf(1)
	}
	count := int64((ka.loads + ka.stores) / float64(ka.n) / p.cfg.Bias)
	return p.cfg.RelError(count, p.IntervalFor(k)) / math.Sqrt(float64(ka.n))
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
func (p *Profiler) Record(e Exec) (maxRelDev float64) {
	ks := &p.kinds[e.Kind]
	ks.execs++
	ks.dur += (e.Duration - ks.dur) / float64(ks.execs)
	if ks.stale && ks.execs >= p.cfg.Window {
		ks.stale = false
	}
	ivl := p.IntervalFor(e.Kind)
	row := p.row(e.Kind)
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
		a := row[o.Obj]
		if a == nil {
			a = &accum{noiseBase: splitmix64(ks.noise ^ uint64(o.Obj))}
			row[o.Obj] = a
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
			ka := &ks.agg
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
func (p *Profiler) EstimateFor(k int, obj task.ObjectID, size int64) (Estimate, bool) {
	if a := p.pair(k, obj); a != nil {
		return Estimate{Loads: a.loads, Stores: a.stores, BWCons: a.bwCons}, true
	}
	ka := &p.kinds[k].agg
	if ka.obsBytes <= 0 {
		return Estimate{}, false
	}
	return Estimate{
		Loads:  ka.loads / ka.obsBytes * float64(size),
		Stores: ka.stores / ka.obsBytes * float64(size),
		BWCons: ka.bwCons,
	}, true
}

// DriftStreak floors the runner's replan cool-down: a replan requested
// by the count audit, a tier quarantine or the feedback loop waits until
// at least this many tasks (more on large graphs) have completed since
// the last plan, so a burst of requests costs one plan.
const DriftStreak = 12

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// MarkStale re-opens the profiling window for kind k. Per-kind sampling
// overrides persist; the pair noise streams restart at observation zero
// (re-profiling the same counts at the same rate reproduces the same
// noise — determinism, not amnesia).
func (p *Profiler) MarkStale(k int) {
	ks := &p.kinds[k]
	ks.stale = true
	ks.execs = 0
	ks.dur = 0
	ks.agg = kindAccum{}
	clear(p.row(k))
}

// MeanDuration returns the mean profiled execution time of kind k.
func (p *Profiler) MeanDuration(k int) (float64, bool) {
	d := p.kinds[k].dur
	return d, d > 0
}
