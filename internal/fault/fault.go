// Package fault implements deterministic, seeded fault injection for the
// simulated heterogeneous memory system. A Schedule is a virtual-time
// script of fault events; an Injector arms the schedule on a sim.Engine
// (via daemon timers, so a recovery point past quiescence never extends
// the simulated makespan) and exposes the current degraded machine view
// to the runtime:
//
//   - TransientCopyFail: the next Count copies on a tier pair fail after
//     consuming their channel time; the migration engine retries them
//     with capped exponential backoff.
//   - Degrade: a tier's device sags for a window — bandwidth divided and
//     latency multiplied by Factor — applied through the demand model via
//     the injector's DegradedView.
//   - CopyStall: the copy engine stalls — every copy's service bytes are
//     inflated by Factor for the window, so stalled copies take longer
//     and may trip the migration engine's per-copy timeout.
//   - TierOutage: a tier above the backing store becomes unusable for a
//     window — placement stops targeting it, residents drain one step
//     down, and copies into it fail — then is readmitted at Until.
//
// Everything is deterministic: a Schedule is plain data, Random derives
// one from a seed, and the injector's timers share the engine's timer
// sequence, so a faulty run replays bit-identically. A nil *Schedule (or
// an empty one) injects nothing and leaves every simulation result
// bit-identical to a run without the fault subsystem.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mem"
)

// Kind enumerates the fault event types.
type Kind int

const (
	// TransientCopyFail makes the next Count copies to Tier (from From,
	// or from anywhere when From is AnySource) fail after consuming
	// their copy-channel time. Unconsumed failures expire at Until.
	TransientCopyFail Kind = iota
	// Degrade slows Tier's device by Factor for [At, Until): bandwidth
	// divided by Factor, latency multiplied by Factor.
	Degrade
	// CopyStall inflates every copy's service bytes by Factor for
	// [At, Until): the helper thread's memcpy engine is stalling.
	CopyStall
	// TierOutage makes Tier (which must be above the backing store)
	// unusable for [At, Until): no new placements, residents drained,
	// copies into it fail, accesses heavily derated.
	TierOutage
)

// String returns the stable lowercase name used in traces and specs.
func (k Kind) String() string {
	switch k {
	case TransientCopyFail:
		return "copy-fail"
	case Degrade:
		return "degrade"
	case CopyStall:
		return "copy-stall"
	case TierOutage:
		return "outage"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AnySource, as an Event.From, matches copies from every source tier.
const AnySource mem.Tier = -1

// Event is one scripted fault. At and Until are virtual-time seconds;
// Until is the recovery point of windowed faults (and the expiry of
// unconsumed TransientCopyFail credits). Until <= At means the event has
// no window: transient credits never expire, and windowed kinds are
// rejected by Validate.
type Event struct {
	At     float64
	Until  float64
	Kind   Kind
	Tier   mem.Tier // affected tier (destination tier for copy failures)
	From   mem.Tier // TransientCopyFail: source tier, or AnySource
	Count  int      // TransientCopyFail: how many copies fail
	Factor float64  // Degrade / CopyStall: slowdown or inflation, >= 1
}

// Schedule is a deterministic fault script. The zero value injects
// nothing. Spec, when non-empty, is the ParseSpec string the schedule
// was built from; it is recorded in replay metadata so a faulty run's
// recording reconstructs the identical schedule.
type Schedule struct {
	Seed   int64
	Spec   string
	Events []Event
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// String returns the canonical spec ("" for nil), the inverse of
// ParseSpec: for any schedule built by Random, RandomCluster, or the
// parsers, ParseSpec(s.String()) reconstructs s exactly.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	return s.Spec
}

// Validate checks the schedule against a machine with numTiers tiers.
func (s *Schedule) Validate(numTiers int) error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d: negative At %g", i, ev.At)
		}
		if int(ev.Tier) < 0 || int(ev.Tier) >= numTiers {
			return fmt.Errorf("fault: event %d: tier %d out of range [0,%d)", i, ev.Tier, numTiers)
		}
		switch ev.Kind {
		case TransientCopyFail:
			if ev.Count < 1 {
				return fmt.Errorf("fault: event %d: copy-fail needs Count >= 1, got %d", i, ev.Count)
			}
			if ev.From != AnySource && (int(ev.From) < 0 || int(ev.From) >= numTiers) {
				return fmt.Errorf("fault: event %d: source tier %d out of range", i, ev.From)
			}
		case Degrade, CopyStall:
			if ev.Factor < 1 {
				return fmt.Errorf("fault: event %d: %s needs Factor >= 1, got %g", i, ev.Kind, ev.Factor)
			}
			if ev.Until <= ev.At {
				return fmt.Errorf("fault: event %d: %s needs a window (Until > At)", i, ev.Kind)
			}
		case TierOutage:
			if ev.Tier == 0 {
				return fmt.Errorf("fault: event %d: the backing store (tier 0) cannot go out", i)
			}
			if ev.Until <= ev.At {
				return fmt.Errorf("fault: event %d: outage needs a window (Until > At)", i)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// MaxEvents caps the events a spec asks for: rate*horizon, or for a
// cluster spec nodes*node-rate*horizon outages and dev-rate*horizon
// device events per node. Specs come from flags, recordings and requests.
const MaxEvents = 1 << 20

// Random derives a schedule from a seed: about rate events per simulated
// second over [0, horizon), mixing all four kinds, targeting a machine
// with the given tier count. The same (seed, rate, horizon, tiers) always
// yields the same schedule, and its Spec round-trips through ParseSpec.
func Random(seed int64, rate, horizon float64, tiers int) *Schedule {
	if tiers < 2 {
		tiers = 2
	}
	s := &Schedule{
		Seed: seed,
		Spec: fmt.Sprintf("rate=%g,seed=%d,horizon=%g,tiers=%d", rate, seed, horizon, tiers),
	}
	n := int(rate*horizon + 0.5)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		at := rng.Float64() * horizon
		window := (0.05 + 0.15*rng.Float64()) * horizon
		var ev Event
		switch p := rng.Float64(); {
		case p < 0.40:
			ev = Event{
				At:    at,
				Until: at + window,
				Kind:  TransientCopyFail,
				Tier:  mem.Tier(rng.Intn(tiers)),
				From:  AnySource,
				Count: 1 + rng.Intn(4),
			}
		case p < 0.70:
			ev = Event{
				At:     at,
				Until:  at + window,
				Kind:   Degrade,
				Tier:   mem.Tier(rng.Intn(tiers)),
				Factor: 2 + 6*rng.Float64(),
			}
		case p < 0.85:
			ev = Event{
				At:     at,
				Until:  at + window,
				Kind:   CopyStall,
				Factor: 2 + 4*rng.Float64(),
			}
		default:
			ev = Event{
				At:    at,
				Until: at + window,
				Kind:  TierOutage,
				Tier:  mem.Tier(1 + rng.Intn(tiers-1)),
			}
		}
		s.Events = append(s.Events, ev)
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}

// ParseSpec builds a schedule from a flag-style spec string:
//
//	rate=2,seed=7,horizon=1.5[,tiers=3]
//
// delegating to Random. Empty string and "none" mean no faults (nil
// schedule). The spec is stored on the schedule, so recordings carry it
// and replays reconstruct the identical schedule.
//
// A "cluster:<cluster spec>;rank=<r>" spec — the form RankSchedule
// stamps on schedules derived from a ClusterSchedule — reconstructs that
// rank's derived device schedule, so recordings of faulty cluster runs
// replay through the same path as single-node ones.
func ParseSpec(spec string) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	if rest, ok := strings.CutPrefix(spec, "cluster:"); ok {
		return parseClusterRankSpec(rest)
	}
	var (
		rate, horizon float64
		seed          int64
		tiers         = 2
		haveRate      bool
		haveHorizon   bool
	)
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad spec element %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "rate":
			rate, err = strconv.ParseFloat(v, 64)
			haveRate = true
		case "seed":
			seed, err = strconv.ParseInt(v, 10, 64)
		case "horizon":
			horizon, err = strconv.ParseFloat(v, 64)
			haveHorizon = true
		case "tiers":
			tiers, err = strconv.Atoi(v)
		default:
			return nil, fmt.Errorf("fault: unknown spec key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad spec value %q: %v", kv, err)
		}
	}
	if !haveRate || !haveHorizon {
		return nil, fmt.Errorf("fault: spec %q needs at least rate= and horizon=", spec)
	}
	if !nonNegFinite(rate) || !nonNegFinite(horizon) {
		return nil, fmt.Errorf("fault: spec %q needs a finite, non-negative rate and horizon", spec)
	}
	if n := rate * horizon; n > MaxEvents {
		return nil, fmt.Errorf("fault: spec %q asks for %.3g events, above the cap of %d", spec, n, MaxEvents)
	}
	return Random(seed, rate, horizon, tiers), nil
}

// nonNegFinite reports whether a parsed rate or horizon is a usable
// number: strconv accepts "NaN" and "Inf", and neither gives Random a
// meaningful event count (a NaN rate silently drew no faults).
func nonNegFinite(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
