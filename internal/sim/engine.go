// Package sim implements a deterministic fluid discrete-event simulator
// used as the timing substrate of the heterogeneous-memory experiments.
//
// The model: work is expressed as flows. A flow passes through a sequence
// of stages; a stage is either a fixed duration (CPU work, or latency-bound
// memory time, which does not contend) or a byte demand on a shared
// resource (a memory device's bandwidth, or the DRAM<->NVM copy channel).
// All flows in a shared stage on the same resource divide its bandwidth in
// proportion to their weights (processor sharing), which reproduces the
// first-order contention behaviour of memory buses: one streaming task gets
// peak bandwidth, eight streaming tasks get one eighth each.
//
// This is the same envelope the DRAM-throttling NVM emulators used by the
// paper enforce (aggregate latency and bandwidth ceilings), made
// deterministic: no wall-clock time, no goroutine scheduling, stable event
// ordering. Between events all rates are constant, so the engine advances
// the virtual clock directly to the next completion.
//
// The event loop is incremental: each resource keeps its active flows in
// an id-ordered slice (no per-event map iteration or re-sort), rates are
// recomputed only for resources whose membership changed since the last
// event (the dirty set), fixed-stage completions sit in a min-heap instead
// of being rescanned, and the drain/finish scratch buffers are engine-owned
// so the steady-state loop does not allocate. The semantics — event
// ordering, tolerances, and every floating-point result — are bit-identical
// to the retained reference implementation (engine_ref_test.go), which the
// equivalence test enforces on randomized scenarios.
package sim

import (
	"fmt"
	"math"
	"sort"
	"unsafe"
)

// Resource is a bandwidth pool shared processor-style by the flows whose
// current stage demands it.
type Resource struct {
	name string
	bw   float64 // bytes per second

	// active flows currently in a shared stage on this resource, in
	// ascending flow-id order (the order rate computation and completion
	// handling require, maintained incrementally on join/leave).
	active []*Flow
	// dirty marks that the membership changed since rates were last
	// computed; clean resources keep their flows' rates untouched.
	dirty bool
	// busySec accumulates time with at least one active flow.
	busySec float64
	// servedBytes accumulates delivered bytes.
	servedBytes float64
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Bandwidth returns the resource's total bandwidth in bytes/second.
func (r *Resource) Bandwidth() float64 { return r.bw }

// Load returns the number of flows currently sharing the resource.
func (r *Resource) Load() int { return len(r.active) }

// BusySec returns the accumulated time the resource had work.
func (r *Resource) BusySec() float64 { return r.busySec }

// ServedBytes returns the total bytes the resource delivered.
func (r *Resource) ServedBytes() float64 { return r.servedBytes }

// Utilization returns delivered bytes over capacity for an interval: the
// fraction of the resource's potential the flows consumed. The ratio is
// returned raw — a value above 1 means the caller's interval is shorter
// than the service actually observed, or conservation broke; clamping it
// would hide the over-accounting bug (Engine.Debug checks the
// conservation law itself).
func (r *Resource) Utilization(interval float64) float64 {
	if interval <= 0 {
		return 0
	}
	return r.servedBytes / (r.bw * interval)
}

// insertActive adds f keeping active id-ordered. The common case — a
// freshly started flow carries the highest id yet — appends.
func (r *Resource) insertActive(f *Flow) {
	a := r.active
	i := len(a)
	if i > 0 && a[i-1].id > f.id {
		i = sort.Search(len(a), func(k int) bool { return a[k].id >= f.id })
	}
	a = append(a, nil)
	copy(a[i+1:], a[i:])
	a[i] = f
	r.active = a
}

// removeActive deletes f from the id-ordered active slice.
func (r *Resource) removeActive(f *Flow) {
	a := r.active
	i := sort.Search(len(a), func(k int) bool { return a[k].id >= f.id })
	copy(a[i:], a[i+1:])
	a[len(a)-1] = nil
	r.active = a[:len(a)-1]
}

// Stage is one step of a flow's lifetime.
// Exactly one of the two kinds applies:
//   - Fixed > 0 (or Res == nil): a fixed duration of Fixed seconds.
//   - Res != nil: a demand of Bytes on the shared resource Res.
//
// MaxRate, when positive, caps the flow's service rate on the resource:
// it models a latency floor — a dependent-access stream cannot consume
// bandwidth faster than its memory-level parallelism allows, no matter
// how idle the device is. Capped flows below their fair share return the
// residual bandwidth to the others (waterfilling).
type Stage struct {
	Fixed   float64   // seconds; used when Res is nil
	Res     *Resource // shared resource; nil for fixed stages
	Bytes   float64   // byte demand on Res
	Weight  float64   // bandwidth share weight; 0 means 1
	MaxRate float64   // per-flow rate cap in bytes/second; 0 means none
}

// Flow is a unit of simulated work: a task execution, a data migration, or
// a synthetic calibration stream.
type Flow struct {
	Label  string
	Stages []Stage
	// OnDone runs at the virtual time the flow completes. It may start new
	// flows and timers on the engine.
	OnDone func(now float64)

	id      int
	stage   int
	remain  float64 // bytes remaining in current shared stage
	fixedAt float64 // absolute completion time of current fixed stage
	nextAt  float64 // scratch: completion time at current rates
	curRate float64 // scratch: allocated rate this event round
	started float64
	done    bool
}

// Start returns the virtual time at which the flow started.
func (f *Flow) Start() float64 { return f.started }

// Reuse resets a completed flow so its owner may start it again with
// fresh stages — the allocation-free path for steady streams of
// short-lived flows (one pooled flow per concurrent task instead of a
// fresh Flow, stage slice, and closure per start). Only a flow whose
// OnDone has fired may be reused: the engine holds no references to a
// completed flow past the event that completed it.
func (f *Flow) Reuse() {
	if !f.done {
		panic("sim: Reuse of an incomplete Flow")
	}
	f.id, f.stage, f.started = 0, 0, 0
	f.remain, f.fixedAt, f.nextAt, f.curRate = 0, 0, 0, 0
	f.done = false
}

// timer is a scheduled callback. A daemon timer never keeps the engine
// alive: Run returns once no flows and no regular timers remain, even if
// daemon timers are still pending (they are simply never fired). Fault
// injection uses daemons for its window boundaries so a recovery point
// past quiescence cannot extend the simulated makespan.
type timer struct {
	at     float64
	seq    int
	daemon bool
	fn     func(now float64)
}

// timerHeap is a binary min-heap ordered by (at, seq) — a strict total
// order, so the pop sequence is independent of heap internals. Concrete
// push/pop (rather than container/heap) avoid boxing every entry into an
// interface, which would allocate in the event loop.
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(t timer) {
	a := append(*h, t)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
	*h = a
}

func (h *timerHeap) pop() timer {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	t := a[n]
	a[n] = timer{}
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && a.less(l, s) {
			s = l
		}
		if r < n && a.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		a[i], a[s] = a[s], a[i]
		i = s
	}
	*h = a
	return t
}

func (h timerHeap) peek() (timer, bool) {
	if len(h) == 0 {
		return timer{}, false
	}
	return h[0], true
}

// fixedEntry is one fixed-stage completion in the engine's min-heap. A
// flow sits in the heap exactly while its current stage is fixed; its
// completion time never changes, so entries need no invalidation — they
// are popped when the stage completes.
type fixedEntry struct {
	at float64
	id int
	f  *Flow
}

// fixedHeap is a binary min-heap ordered by (at, id); a flow holds at
// most one entry (one current stage), so the order is strict and total.
type fixedHeap []fixedEntry

func (h fixedHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}

func (h *fixedHeap) push(e fixedEntry) {
	a := append(*h, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
	*h = a
}

func (h *fixedHeap) pop() fixedEntry {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	e := a[n]
	a[n] = fixedEntry{}
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && a.less(l, s) {
			s = l
		}
		if r < n && a.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		a[i], a[s] = a[s], a[i]
		i = s
	}
	*h = a
	return e
}

func (h fixedHeap) peek() (fixedEntry, bool) {
	if len(h) == 0 {
		return fixedEntry{}, false
	}
	return h[0], true
}

// EventKind classifies trace events.
type EventKind int

const (
	// EvStart records a flow entering the system.
	EvStart EventKind = iota
	// EvDone records a flow completing its last stage.
	EvDone
)

// Event is one entry of the engine's optional trace.
type Event struct {
	Kind  EventKind
	Time  float64
	Label string
}

// Engine owns the virtual clock, the resources, and the active flows.
// NewEngine returns one; Reset returns a used one to the same state.
type Engine struct {
	now       float64
	nflows    int // live flows, fixed- and shared-stage alike
	resources []*Resource
	dirty     []*Resource // resources whose membership changed
	fixed     fixedHeap   // pending fixed-stage completions
	timers    timerHeap
	timerSeq  int
	nlive     int // pending non-daemon timers
	nextID    int

	// finished is the reusable per-event completion buffer.
	finished []*Flow

	// Trace, if non-nil, receives start and completion events.
	Trace func(Event)

	// Debug enables per-event invariant checks: a resource must never
	// deliver more bytes than bandwidth x busy time allows (beyond eps) —
	// the conservation law over-accounting would break first.
	Debug bool

	running bool
	steps   int64
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns e to the state NewEngine returns it in (virtual time
// zero, no resources, flows or timers, Trace and Debug off) and returns
// e. It keeps e's heaps and buffers, and the Resource structs AddResource
// made, which the next AddResource calls hand out again, so a reset
// engine runs a simulation like the last one without allocating.
// Pending timers, such as daemons left at quiescence, are dropped
// unfired; the old simulation's resources must not be used again.
func (e *Engine) Reset() *Engine {
	if e.running {
		panic("sim: Reset of a running Engine")
	}
	clear(e.fixed)
	clear(e.timers)
	*e = Engine{
		resources: e.resources[:0],
		dirty:     e.dirty[:0],
		fixed:     e.fixed[:0],
		timers:    e.timers[:0],
		finished:  e.finished[:0],
	}
	return e
}

// Footprint returns the bytes e's buffers and Resource structs hold.
func (e *Engine) Footprint() int {
	n := 8*(cap(e.resources)+cap(e.dirty)+cap(e.finished)) +
		cap(e.fixed)*int(unsafe.Sizeof(fixedEntry{})) + cap(e.timers)*int(unsafe.Sizeof(timer{}))
	for _, r := range e.resources[:cap(e.resources)] {
		if r != nil {
			n += int(unsafe.Sizeof(*r)) + 8*cap(r.active)
		}
	}
	return n
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of discrete events processed so far.
func (e *Engine) Steps() int64 { return e.steps }

// AddResource registers a shared bandwidth pool.
func (e *Engine) AddResource(name string, bw float64) *Resource {
	if bw <= 0 {
		panic(fmt.Sprintf("sim: resource %q with non-positive bandwidth %g", name, bw))
	}
	if n := len(e.resources); n < cap(e.resources) {
		if r := e.resources[:n+1][n]; r != nil { // kept by Reset
			*r = Resource{name: name, bw: bw, active: r.active[:0]}
			e.resources = e.resources[:n+1]
			return r
		}
	}
	r := &Resource{name: name, bw: bw}
	e.resources = append(e.resources, r)
	return r
}

// markDirty queues r for rate recomputation at the next event.
func (e *Engine) markDirty(r *Resource) {
	if !r.dirty {
		r.dirty = true
		e.dirty = append(e.dirty, r)
	}
}

// At schedules fn to run at virtual time t (clamped to now if in the past).
func (e *Engine) At(t float64, fn func(now float64)) {
	if t < e.now {
		t = e.now
	}
	e.timerSeq++
	e.nlive++
	e.timers.push(timer{at: t, seq: e.timerSeq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func(now float64)) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// AtDaemon schedules fn like At, but as a daemon: the timer fires only if
// the simulation is still alive (flows or regular timers pending) when its
// time comes, and never extends the run on its own. Daemons share the
// timer sequence counter, so same-instant ordering against regular timers
// is deterministic.
func (e *Engine) AtDaemon(t float64, fn func(now float64)) {
	if t < e.now {
		t = e.now
	}
	e.timerSeq++
	e.timers.push(timer{at: t, seq: e.timerSeq, daemon: true, fn: fn})
}

// AfterDaemon schedules fn to run d seconds from now as a daemon timer.
func (e *Engine) AfterDaemon(d float64, fn func(now float64)) {
	if d < 0 {
		d = 0
	}
	e.AtDaemon(e.now+d, fn)
}

// StartFlow admits a flow. Empty flows complete at the current time (their
// OnDone still runs, via a zero-delay timer, preserving event ordering).
func (e *Engine) StartFlow(f *Flow) {
	if f.done {
		panic("sim: reusing a completed Flow")
	}
	e.nextID++
	f.id = e.nextID
	f.started = e.now
	f.stage = -1
	e.nflows++
	if e.Trace != nil {
		e.Trace(Event{Kind: EvStart, Time: e.now, Label: f.Label})
	}
	e.advanceStage(f)
}

// advanceStage moves f into its next stage, completing it if none remain.
func (e *Engine) advanceStage(f *Flow) {
	// Leave the previous shared stage, if any.
	if f.stage >= 0 && f.stage < len(f.Stages) {
		st := &f.Stages[f.stage]
		if st.Res != nil {
			st.Res.removeActive(f)
			e.markDirty(st.Res)
		}
	}
	for {
		f.stage++
		if f.stage >= len(f.Stages) {
			f.done = true
			e.nflows--
			if e.Trace != nil {
				e.Trace(Event{Kind: EvDone, Time: e.now, Label: f.Label})
			}
			if f.OnDone != nil {
				f.OnDone(e.now)
			}
			return
		}
		st := &f.Stages[f.stage]
		if st.Res != nil {
			if st.Bytes <= 0 {
				continue // empty shared stage
			}
			st.Res.insertActive(f)
			e.markDirty(st.Res)
			f.remain = st.Bytes
			return
		}
		if st.Fixed <= 0 {
			continue // empty fixed stage
		}
		f.fixedAt = e.now + st.Fixed
		e.fixed.push(fixedEntry{at: f.fixedAt, id: f.id, f: f})
		return
	}
}

func stageWeight(st *Stage) float64 {
	if st.Weight > 0 {
		return st.Weight
	}
	return 1
}

// computeRates allocates each active flow's service rate: weighted
// processor sharing with per-flow caps, waterfilled so bandwidth a
// capped flow cannot use is redistributed to the uncapped ones. Only
// resources whose active set changed since the last event are touched —
// a clean resource's inputs are unchanged, so recomputation would
// reproduce the rates its flows already carry, bit for bit.
func (e *Engine) computeRates() {
	for _, r := range e.dirty {
		r.dirty = false
		if len(r.active) == 0 {
			continue
		}
		remBW := r.bw
		remW := 0.0
		for _, f := range r.active {
			remW += stageWeight(&f.Stages[f.stage])
			f.curRate = -1
		}
		// Iteratively pin flows whose cap is below their fair share.
		for {
			if remW <= 0 {
				break
			}
			fair := remBW / remW
			progress := false
			for _, f := range r.active {
				if f.curRate >= 0 {
					continue
				}
				st := &f.Stages[f.stage]
				w := stageWeight(st)
				if st.MaxRate > 0 && st.MaxRate < fair*w {
					f.curRate = st.MaxRate
					remBW -= st.MaxRate
					remW -= w
					progress = true
				}
			}
			if !progress {
				for _, f := range r.active {
					if f.curRate < 0 {
						f.curRate = fair * stageWeight(&f.Stages[f.stage])
					}
				}
				break
			}
		}
		// Numerical guard: a rate of zero would stall the simulation.
		for _, f := range r.active {
			if f.curRate <= 0 {
				f.curRate = r.bw * 1e-12
			}
		}
	}
	e.dirty = e.dirty[:0]
}

// eps is the relative tolerance for simultaneous-event detection.
const eps = 1e-9

// checkConservation panics if r delivered more bytes than bandwidth x
// busy time allows beyond the engine's tolerance (Debug mode only).
func (e *Engine) checkConservation(r *Resource) {
	limit := r.bw * r.busySec
	if r.servedBytes > limit*(1+eps)+1e-6 {
		panic(fmt.Sprintf("sim: resource %q over-served: %g bytes > %g bw x busySec",
			r.name, r.servedBytes, limit))
	}
}

// Run processes events until no flows are active and no regular timers
// remain; pending daemon timers (AtDaemon/AfterDaemon) do not extend the
// run and are dropped unfired at quiescence. It returns the final
// virtual time.
func (e *Engine) Run() float64 {
	if e.running {
		panic("sim: Engine.Run reentered")
	}
	e.running = true
	defer func() { e.running = false }()

	for {
		// Fire all timers due now (they may start flows at the current time).
		for {
			t, ok := e.timers.peek()
			if !ok || t.at > e.now+math.Max(1e-18, e.now*eps) {
				break
			}
			e.timers.pop()
			if !t.daemon {
				e.nlive--
			}
			t.fn(e.now)
		}

		if e.nflows == 0 {
			if e.nlive == 0 {
				// Only daemon timers (if any) remain: they must not keep the
				// simulation alive, so this is quiescence.
				return e.now
			}
			t, _ := e.timers.peek()
			e.now = t.at
			continue
		}

		// Find the earliest completion among shared stages at current
		// rates, pending fixed stages, and timers.
		e.computeRates()
		next := math.Inf(1)
		for _, r := range e.resources {
			for _, f := range r.active {
				f.nextAt = e.now + f.remain/f.curRate
				if f.nextAt < next {
					next = f.nextAt
				}
			}
		}
		if fe, ok := e.fixed.peek(); ok && fe.at < next {
			next = fe.at
		}
		if t, ok := e.timers.peek(); ok && t.at < next {
			next = t.at
		}
		if math.IsInf(next, 1) {
			panic("sim: active flows but no next event")
		}
		dt := next - e.now
		if dt < 0 {
			dt = 0
		}

		// Drain all shared stages by dt at the pre-advance rates, and
		// collect the flows whose completion lands at `next` (within
		// tolerance; simultaneous completions are processed together).
		tol := math.Max(1e-18, next*eps)
		finished := e.finished[:0]
		for _, r := range e.resources {
			if len(r.active) == 0 {
				continue
			}
			r.busySec += dt
			for _, f := range r.active {
				served := f.curRate * dt
				f.remain -= served
				r.servedBytes += served
				if f.nextAt <= next+tol {
					finished = append(finished, f)
				}
			}
			if e.Debug {
				e.checkConservation(r)
			}
		}
		for {
			fe, ok := e.fixed.peek()
			if !ok || fe.at > next+tol {
				break
			}
			e.fixed.pop()
			finished = append(finished, fe.f)
		}
		e.now = next
		e.steps++

		// Deterministic completion order: ascending flow id. Insertion
		// sort — the set is almost always tiny, and sort.Slice's
		// reflection header would be the loop's only allocation.
		for i := 1; i < len(finished); i++ {
			f := finished[i]
			j := i
			for j > 0 && finished[j-1].id > f.id {
				finished[j] = finished[j-1]
				j--
			}
			finished[j] = f
		}
		e.finished = finished
		for _, f := range finished {
			if !f.done {
				e.advanceStage(f)
			}
		}
		// Drop references so completed flows are collectable; the buffer's
		// capacity is reused next event.
		for i := range e.finished {
			e.finished[i] = nil
		}
		e.finished = e.finished[:0]
	}
}
