package fault

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// outageDerate is how much slower an outaged tier's device looks to the
// demand model: data already there stays readable (the paper's
// correctness contract), just very slow, while the runtime drains it.
const outageDerate = 8

// Injector arms a Schedule on a simulation engine and tracks which
// faults are live at the current virtual time. All its timers are
// daemons: they share the engine's deterministic timer ordering but
// never keep the simulation alive, so a recovery point scheduled past
// quiescence cannot extend the makespan.
//
// The runtime consults the injector on its hot paths through cheap
// accessors (CopyFails, CopyInflation, DegradedView); DegradedView is
// memoized on an epoch counter that bumps at every state change, so the
// fault-free steady state costs one integer compare.
type Injector struct {
	e     *sim.Engine
	sched *Schedule

	active  []bool // per event: inside its window
	credits []int  // per event: unconsumed TransientCopyFail credits

	deg    [mem.MaxTiers]float64 // device slowdown per tier, >= 1
	outage [mem.MaxTiers]bool
	stall  float64 // copy service-byte inflation, >= 1

	epoch     uint64 // bumped on every activation/deactivation
	view      mem.HMS
	viewEpoch uint64
	viewOK    bool

	// OnEvent, if non-nil, observes every activation (active=true) and
	// recovery (active=false) at its virtual time.
	OnEvent func(now float64, ev Event, active bool)
	// OnCopyFault, if non-nil, observes every injected copy failure or
	// abandonment the migration engine reports via RecordFault; the
	// runtime uses it to drive tier quarantine.
	OnCopyFault func(now float64, from, to mem.Tier)
}

// NewInjector binds a schedule to an engine. The schedule may be nil or
// empty, in which case Install arms nothing and every accessor reports
// the fault-free state.
func NewInjector(e *sim.Engine, s *Schedule) *Injector {
	in := &Injector{e: e, sched: s, stall: 1}
	for t := range in.deg {
		in.deg[t] = 1
	}
	if !s.Empty() {
		in.active = make([]bool, len(s.Events))
		in.credits = make([]int, len(s.Events))
	}
	return in
}

// Install arms one daemon timer per event boundary. Call once, before
// the engine runs.
func (in *Injector) Install() {
	if in.sched.Empty() {
		return
	}
	for i := range in.sched.Events {
		i := i
		ev := in.sched.Events[i]
		in.e.AtDaemon(ev.At, func(now float64) { in.toggle(now, i, true) })
		if ev.Until > ev.At {
			in.e.AtDaemon(ev.Until, func(now float64) { in.toggle(now, i, false) })
		}
	}
}

// toggle flips event i's window state and recomputes the aggregate view.
func (in *Injector) toggle(now float64, i int, on bool) {
	ev := in.sched.Events[i]
	in.active[i] = on
	if ev.Kind == TransientCopyFail {
		if on {
			in.credits[i] = ev.Count
		} else {
			in.credits[i] = 0
		}
	}
	in.recompute()
	in.epoch++
	if in.OnEvent != nil {
		in.OnEvent(now, ev, on)
	}
}

// recompute rebuilds the aggregate tier factors from the active windows.
// Overlapping windows combine by max, not product: two 4x degradations
// of one device are still that device degraded 4x.
func (in *Injector) recompute() {
	for t := range in.deg {
		in.deg[t] = 1
		in.outage[t] = false
	}
	in.stall = 1
	for i, on := range in.active {
		if !on {
			continue
		}
		ev := in.sched.Events[i]
		switch ev.Kind {
		case Degrade:
			if ev.Factor > in.deg[ev.Tier] {
				in.deg[ev.Tier] = ev.Factor
			}
		case CopyStall:
			if ev.Factor > in.stall {
				in.stall = ev.Factor
			}
		case TierOutage:
			in.outage[ev.Tier] = true
		}
	}
}

// Epoch returns the state-change counter; it advances exactly when any
// accessor below may change its answer.
func (in *Injector) Epoch() uint64 { return in.epoch }

// TierOut reports whether tier t is currently in an outage window.
func (in *Injector) TierOut(t mem.Tier) bool { return in.outage[t] }

// CopyFails decides whether a copy from -> to completing now fails,
// consuming one transient credit if so. Copies into an outaged tier
// always fail (without consuming credits).
func (in *Injector) CopyFails(from, to mem.Tier) bool {
	if in.outage[to] {
		return true
	}
	for i, on := range in.active {
		if !on || in.credits[i] <= 0 {
			continue
		}
		ev := in.sched.Events[i]
		if ev.Kind == TransientCopyFail && ev.Tier == to && (ev.From == AnySource || ev.From == from) {
			in.credits[i]--
			return true
		}
	}
	return false
}

// CopyInflation returns the current service-byte inflation for a copy
// (>= 1; exactly 1 when no stall window is live, preserving
// bit-identity of the fault-free path).
func (in *Injector) CopyInflation(from, to mem.Tier) float64 { return in.stall }

// RecordFault routes an injected failure observed by the migration
// engine to the runtime's OnCopyFault hook.
func (in *Injector) RecordFault(now float64, from, to mem.Tier) {
	if in.OnCopyFault != nil {
		in.OnCopyFault(now, from, to)
	}
}

// DegradedView returns base as seen through the live degradation
// windows: each affected tier's device derated by its factor (outaged
// tiers by at least outageDerate). With no live degradation it returns
// base itself, bit-identical. The computed view is memoized per epoch;
// the injector is bound to one run, so base is the same machine on
// every call.
func (in *Injector) DegradedView(base mem.HMS) mem.HMS {
	clean := true
	for t := 0; t < base.NumTiers(); t++ {
		if in.deg[t] != 1 || in.outage[t] {
			clean = false
		}
	}
	if clean {
		return base
	}
	if in.viewOK && in.viewEpoch == in.epoch {
		return in.view
	}
	// base shares its tier slice with the caller's machine: derate a copy.
	h := base
	h.Tiers = append([]mem.TierSpec(nil), base.Tiers...)
	for t := range h.Tiers {
		h.Tiers[t].Device = h.Tiers[t].Device.Derate(in.factor(mem.Tier(t)))
	}
	in.view, in.viewEpoch, in.viewOK = h, in.epoch, true
	return h
}

// factor is the effective derate for one tier.
func (in *Injector) factor(t mem.Tier) float64 {
	f := in.deg[t]
	if in.outage[t] && f < outageDerate {
		f = outageDerate
	}
	return f
}

// RecoveryAt returns the earliest event end-time strictly after now
// among events touching tier t — the natural point to re-probe a
// quarantined tier — or 0 when the schedule holds nothing for t beyond
// now.
func (in *Injector) RecoveryAt(t mem.Tier, now float64) float64 {
	if in.sched.Empty() {
		return 0
	}
	best := 0.0
	for _, ev := range in.sched.Events {
		if ev.Tier != t {
			continue
		}
		end := ev.At
		if ev.Until > end {
			end = ev.Until
		}
		if end > now && (best == 0 || end < best) {
			best = end
		}
	}
	return best
}
