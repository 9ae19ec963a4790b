// Package migrate implements the proactive data-movement mechanism: a
// helper thread that performs asynchronous inter-tier copies (classically
// DRAM<->NVM) requested by the runtime, overlapping them with task
// execution. The main runtime and the helper interact through a FIFO
// request queue, exactly as in the paper: the runtime enqueues movement
// requests as soon as the task graph says they are dependence-safe; the
// helper performs them one at a time at the tier pair's copy bandwidth;
// the runtime checks completion before dispatching a task whose data is
// in flight and accounts any wait as exposed (non-overlapped) migration
// cost.
//
// Invariants: a chunk with any queued or in-flight request reports Busy
// until every request settles (completion, cancellation, or a no-room
// drop), so the runtime never dispatches a task over a moving chunk; a
// request that cannot fit at its target tier is dropped without claiming
// the copy channel, and the data stays readable where it is; and on the
// two-tier machine every copy is charged at exactly the configured
// CopyBW — per-pair bandwidths apply only when the machine has more than
// two tiers.
package migrate

import (
	"slices"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/task"
)

// Request asks the helper thread to move one chunk to a tier.
type Request struct {
	Ref heap.ChunkRef
	To  mem.Tier
	// From is the chunk's tier when the request was enqueued; Enqueue
	// sets it.
	From mem.Tier
	// ForTask is the task this movement serves (diagnostic; promotions
	// from the global plan use -1).
	ForTask task.TaskID
	// Done, if non-nil, runs at the virtual time the movement finishes,
	// with the request itself; ok reports whether the chunk actually
	// moved (false when the target tier had no room, in which case the
	// data stays put and the program remains correct, just slower).
	// Because Done receives the request, one callback bound once can
	// serve every movement.
	Done func(now float64, r Request, ok bool)

	// attempt counts completed copy attempts that failed transiently;
	// the engine re-enqueues the request until MaxRetries is exhausted.
	attempt int
}

// Stats aggregates the migration activity of one run — the numbers behind
// the paper's migration-details table: how many movements, how many bytes,
// how much copy time, and how much of it the runtime failed to hide.
type Stats struct {
	Migrations int
	// Dropped counts requests abandoned before their copy started: no
	// room at the target tier at dequeue time, no channel time consumed.
	Dropped int
	// MoveFailed counts copies that consumed their channel time but whose
	// completion found no room (heap.State.Move failed).
	MoveFailed int
	// Retries counts copy attempts re-queued after an injected transient
	// failure (always 0 without fault injection).
	Retries int
	// Abandoned counts requests given up mid-resilience: retry budget
	// exhausted or per-copy timeout on a stalled copy (always 0 without
	// fault injection).
	Abandoned  int
	BytesMoved int64
	// CopySec is total helper-thread copy time.
	CopySec float64
	// ExposedSec is task wait time attributable to in-flight or queued
	// migrations (charged by the runtime via AddExposed).
	ExposedSec float64
}

// Failed is the total number of requests that did not move their chunk:
// pre-copy drops plus post-copy Move failures plus abandonments.
func (s Stats) Failed() int { return s.Dropped + s.MoveFailed + s.Abandoned }

// OverlapFraction is the share of copy time hidden under execution.
func (s Stats) OverlapFraction() float64 {
	if s.CopySec <= 0 {
		return 1
	}
	f := 1 - s.ExposedSec/s.CopySec
	if f < 0 {
		return 0
	}
	return f
}

// Observer receives copy lifecycle notifications (e.g. for tracing).
// CopyDropped reports a promotion abandoned before the copy started
// (no DRAM room at dequeue time): no CopyStarted precedes it and no
// helper-thread time was consumed.
type Observer interface {
	CopyStarted(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64)
	CopyFinished(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64, ok bool)
	CopyDropped(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64)
}

// FaultObserver optionally extends Observer with resilience lifecycle
// events; the engine feeds it only when an Observer also implements this
// interface, so existing observers keep working unchanged. CopyRetried
// fires when a transiently failed copy is re-queued (after its
// CopyFinished(ok=false)); CopyAbandoned fires when a request is given
// up — retry budget exhausted or a stalled copy hitting its timeout.
type FaultObserver interface {
	Observer
	CopyRetried(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64, attempt int)
	CopyAbandoned(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64)
}

// Engine is the helper thread. It is driven entirely by the simulation
// engine: Enqueue may be called from any simulation callback.
type Engine struct {
	sim     *sim.Engine
	copyRes *sim.Resource
	state   *heap.State
	hms     mem.HMS

	// Observer, if non-nil, is notified of every copy's start and end.
	Observer Observer

	// Faults, if non-nil, injects transient copy failures and copy-engine
	// stalls, and the engine answers with the resilience machinery below.
	// With Faults nil every fault path is skipped outright and behavior is
	// bit-identical to an engine built before fault injection existed.
	Faults *fault.Injector

	// queue holds the waiting requests from queue[head] on; a drained
	// queue rewinds, so its array is reused.
	queue   []Request
	head    int
	busy    bool
	current heap.ChunkRef // chunk being copied when busy

	// hs is made at the first copy or settlement, so an engine that
	// never moves anything costs nothing more.
	hs *helperState
	// pending counts queued or in-flight requests per chunk, indexed by
	// the dense global chunk index; pendingChunks counts chunks with a
	// nonzero entry (what PendingCount reports).
	pending       []int32
	pendingChunks int

	copySeq      uint64 // id of the current copy, for timeout matching
	curAbandoned bool   // current copy already settled by its timeout

	stats Stats
}

// Resilience tuning; all of it is inert until Faults is set.
const (
	// MaxRetries bounds how many times one request is re-queued after a
	// transient failure before being abandoned.
	MaxRetries = 4
	// BackoffBaseSec and BackoffMaxSec shape the capped exponential
	// backoff (virtual time) between retry attempts.
	BackoffBaseSec = 1e-3
	BackoffMaxSec  = 16e-3
	// TimeoutFactor abandons a copy still in flight after TimeoutFactor
	// times its nominal (uninflated) duration: a stalled copy is given up
	// rather than blocking the chunk forever.
	TimeoutFactor = 4
)

// helperState is an engine's reusable copy and settlement machinery.
// Every copy runs on flow, restarted through sim.Flow.Reuse from its own
// OnDone (sim marks a flow done and removes it from its resource before
// calling OnDone); cur holds the running copy's request and from, size
// and bytes its source tier, size and service bytes. settled queues the
// settlements whose Done is still to run, from head on: each schedules
// one zero-delay timer running fire, and same-instant timers fire in
// (time, scheduling) order, so the k-th firing pops the k-th settlement.
type helperState struct {
	flow    sim.Flow
	stage   [1]sim.Stage
	cur     Request
	from    mem.Tier
	size    int64
	bytes   float64
	settled []settlement
	head    int
	// fire and finish are the engine's fire and finishCopy, bound once.
	fire, finish func(now float64)
}

// settlement is a settled request whose Done has yet to run.
type settlement struct {
	r  Request
	ok bool
}

// Reset makes m a migration engine copying at h.CopyBW over the given
// placement state, with no requests, no observer, no faults and zero
// stats, and returns m: a reset Engine behaves exactly as a new one. It
// keeps m's request queue, pending table and copy machinery, so an engine
// reused across runs stops allocating once they have grown.
func (m *Engine) Reset(e *sim.Engine, state *heap.State, h mem.HMS) *Engine {
	clear(m.queue)
	hs := m.hs
	if hs != nil {
		clear(hs.settled)
		hs.settled, hs.head, hs.cur, hs.flow = hs.settled[:0], 0, Request{}, sim.Flow{}
	}
	pending := slices.Grow(m.pending[:0], state.TotalChunks())[:state.TotalChunks()]
	clear(pending)
	*m = Engine{
		sim:     e,
		copyRes: e.AddResource("copy", h.CopyBW),
		state:   state,
		hms:     h,
		queue:   m.queue[:0],
		hs:      hs,
		pending: pending,
	}
	return m
}

// Footprint returns the bytes m's queue, pending table and copy
// machinery hold.
func (m *Engine) Footprint() int {
	n := cap(m.queue)*int(unsafe.Sizeof(Request{})) + 4*cap(m.pending)
	if m.hs != nil {
		n += int(unsafe.Sizeof(*m.hs)) + cap(m.hs.settled)*int(unsafe.Sizeof(settlement{}))
	}
	return n
}

// helper returns the engine's helperState, making it on first use.
func (m *Engine) helper() *helperState {
	if m.hs == nil {
		m.hs = &helperState{fire: m.fire, finish: m.finishCopy}
	}
	return m.hs
}

// Enqueue appends a movement request to the helper thread's queue.
// Requests for chunks already at the target tier complete immediately.
func (m *Engine) Enqueue(r Request) {
	ix := m.state.ChunkIndex(r.Ref)
	r.From = m.state.TierAt(ix)
	if r.From == r.To && m.pending[ix] == 0 {
		m.notify(r, true)
		return
	}
	if m.pending[ix] == 0 {
		m.pendingChunks++
	}
	m.pending[ix]++
	m.push(r)
	m.kick()
}

// Busy reports whether the chunk has a queued or in-flight movement; the
// runtime must not dispatch a task touching a busy chunk.
func (m *Engine) Busy(ref heap.ChunkRef) bool { return m.pending[m.state.ChunkIndex(ref)] > 0 }

// InFlight reports whether the chunk's bytes are being copied right now
// (as opposed to merely waiting in the queue).
func (m *Engine) InFlight(ref heap.ChunkRef) bool { return m.busy && m.current == ref }

// CancelQueued removes every queued (not yet copying) request for the
// chunk except those serving the given task, firing their Done callbacks
// with ok=false. It returns how many requests were cancelled. The
// runtime uses it to let a ready task run instead of waiting on a
// speculative movement that has not even started.
func (m *Engine) CancelQueued(ref heap.ChunkRef, except task.TaskID) int {
	kept := m.head
	for _, r := range m.queue[m.head:] {
		if r.Ref == ref && r.ForTask != except {
			m.settle(r, false)
			continue
		}
		m.queue[kept] = r
		kept++
	}
	cancelled := len(m.queue) - kept
	clear(m.queue[kept:])
	m.queue = m.queue[:kept]
	return cancelled
}

// BusyObject reports whether any chunk of the object is busy: one
// contiguous scan of the object's pending counters.
func (m *Engine) BusyObject(obj task.ObjectID) bool {
	base := m.state.ChunkBase(obj)
	for _, p := range m.pending[base : base+m.state.Chunks(obj)] {
		if p > 0 {
			return true
		}
	}
	return false
}

// QueueLen returns the number of waiting requests (excluding in-flight).
func (m *Engine) QueueLen() int { return len(m.queue) - m.head }

// PendingCount returns how many chunks currently report Busy (queued or
// in-flight requests not yet settled). Zero at quiescence.
func (m *Engine) PendingCount() int { return m.pendingChunks }

// AddExposed charges task wait time against the overlap accounting.
func (m *Engine) AddExposed(sec float64) { m.stats.ExposedSec += sec }

// Stats returns a snapshot of the migration statistics.
func (m *Engine) Stats() Stats { return m.stats }

// CopyBusySec returns the helper thread's accumulated busy time.
func (m *Engine) CopyBusySec() float64 { return m.copyRes.BusySec() }

// settle completes a request: its pending count drops immediately — so
// Busy/InFlight stop naming it the moment it is settled — while its Done
// callback fires at a zero-delay event like every other completion.
func (m *Engine) settle(r Request, ok bool) {
	ix := m.state.ChunkIndex(r.Ref)
	m.pending[ix]--
	if m.pending[ix] == 0 {
		m.pendingChunks--
	}
	m.notify(r, ok)
}

// notify queues r's Done, if any, for a zero-delay event.
func (m *Engine) notify(r Request, ok bool) {
	if r.Done != nil {
		hs := m.helper()
		hs.settled = append(hs.settled, settlement{r, ok})
		m.sim.After(0, hs.fire)
	}
}

// fire runs the oldest queued settlement's Done.
func (m *Engine) fire(now float64) {
	hs := m.hs
	s := hs.settled[hs.head]
	hs.settled[hs.head] = settlement{}
	if hs.head++; hs.head == len(hs.settled) {
		hs.settled, hs.head = hs.settled[:0], 0
	}
	s.r.Done(now, s.r, s.ok)
}

// push appends a waiting request. A full array whose front has drained
// slides its backlog to the front first, so a queue that never empties
// stays as large as its backlog.
func (m *Engine) push(r Request) {
	if m.head > 0 && len(m.queue) == cap(m.queue) {
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, r)
}

// pop removes and returns the oldest waiting request.
func (m *Engine) pop() Request {
	r := m.queue[m.head]
	m.queue[m.head] = Request{}
	if m.head++; m.head == len(m.queue) {
		m.queue, m.head = m.queue[:0], 0
	}
	return r
}

// kick starts the next real copy if the helper thread is idle. Requests
// that became moot while queued (chunk already at the target tier) or
// cannot proceed (no DRAM room) are settled on the spot without claiming
// the channel: claiming it, as an earlier version did, made InFlight
// report a copy that never starts until the zero-delay callback fired,
// and the runtime would block a ready task on that phantom. Skipping
// them inline also keeps FIFO order for the real copies behind them.
func (m *Engine) kick() {
	for !m.busy && m.QueueLen() > 0 {
		r := m.pop()

		if m.state.Tier(r.Ref) == r.To {
			// Became moot while queued (e.g. duplicate requests).
			m.settle(r, true)
			continue
		}
		if !m.state.CanMoveTo(r.Ref, r.To) {
			// No room at the target tier: drop the movement. The data stays
			// readable where it is. (On the two-tier machine only promotions
			// can fail this way — the NVM tier is effectively unbounded.)
			m.stats.Dropped++
			if m.Observer != nil {
				m.Observer.CopyDropped(m.sim.Now(), r.Ref, r.To, m.state.ChunkSize(r.Ref))
			}
			m.settle(r, false)
			continue
		}

		m.busy = true
		m.current = r.Ref
		m.copySeq++
		m.curAbandoned = false
		from := m.state.Tier(r.Ref)
		size := m.state.ChunkSize(r.Ref)
		// The copy resource runs at the configured promotion-path bandwidth
		// (h.CopyBW). On machines with more than two tiers, each pair has
		// its own sustainable bandwidth: scale the flow's service bytes so
		// the copy takes size / CopyBWBetween(from, to) seconds of channel
		// time. Two-tier machines keep the exact legacy charge.
		bytes := float64(size)
		if m.hms.NumTiers() > 2 {
			bytes = float64(size) * m.hms.CopyBW / m.hms.CopyBWBetween(from, r.To)
		}
		if m.Faults != nil {
			// A live copy-engine stall inflates the service bytes; the
			// nominal duration below deliberately excludes the inflation so
			// a badly stalled copy trips its timeout.
			if inf := m.Faults.CopyInflation(from, r.To); inf != 1 {
				bytes *= inf
			}
			seq := m.copySeq
			nominal := float64(size) / m.hms.CopyBWBetween(from, r.To)
			m.sim.AfterDaemon(TimeoutFactor*nominal, func(now float64) {
				m.abandonStalled(now, seq, r, size)
			})
		}
		if m.Observer != nil {
			m.Observer.CopyStarted(m.sim.Now(), r.Ref, r.To, size)
		}
		hs := m.helper()
		if hs.flow.OnDone == nil { // the first copy since Reset
			hs.flow.Stages, hs.flow.OnDone = hs.stage[:], hs.finish
		} else {
			hs.flow.Reuse()
		}
		hs.cur, hs.from, hs.size, hs.bytes = r, from, size, bytes
		hs.stage[0] = sim.Stage{Res: m.copyRes, Bytes: bytes}
		m.sim.StartFlow(&hs.flow)
	}
}

// finishCopy runs when the current copy's flow drains its channel time.
func (m *Engine) finishCopy(now float64) {
	hs := m.hs
	r, from, size, bytes := hs.cur, hs.from, hs.size, hs.bytes
	hs.cur = Request{}
	m.busy = false
	if m.curAbandoned {
		// The per-copy timeout already settled this request: the channel
		// just drained, the data never moved. Account the burned channel
		// time and move on.
		m.stats.CopySec += bytes / m.copyRes.Bandwidth()
		if m.Observer != nil {
			m.Observer.CopyFinished(now, r.Ref, r.To, size, false)
		}
		m.kick()
		return
	}
	if m.Faults != nil && m.Faults.CopyFails(from, r.To) {
		m.stats.CopySec += bytes / m.copyRes.Bandwidth()
		if m.Observer != nil {
			m.Observer.CopyFinished(now, r.Ref, r.To, size, false)
		}
		m.Faults.RecordFault(now, from, r.To)
		if r.attempt < MaxRetries {
			r.attempt++
			m.stats.Retries++
			if fo, ok := m.Observer.(FaultObserver); ok {
				fo.CopyRetried(now, r.Ref, r.To, size, r.attempt)
			}
			// Re-queue after capped exponential backoff. The pending count
			// is still held, so the chunk stays Busy across the backoff.
			d := BackoffBaseSec * float64(int64(1)<<uint(r.attempt-1))
			if d > BackoffMaxSec {
				d = BackoffMaxSec
			}
			m.sim.After(d, func(float64) {
				m.push(r)
				m.kick()
			})
		} else {
			m.stats.Abandoned++
			if fo, ok := m.Observer.(FaultObserver); ok {
				fo.CopyAbandoned(now, r.Ref, r.To, size)
			}
			m.settle(r, false)
		}
		m.kick()
		return
	}
	err := m.state.Move(r.Ref, r.To)
	ok := err == nil
	if ok {
		m.stats.Migrations++
		m.stats.BytesMoved += size
	} else {
		m.stats.MoveFailed++
	}
	m.stats.CopySec += bytes / m.copyRes.Bandwidth()
	if m.Observer != nil {
		m.Observer.CopyFinished(now, r.Ref, r.To, size, ok)
	}
	m.settle(r, ok)
	m.kick()
}

// abandonStalled is the per-copy timeout: if copy seq is still in flight,
// give it up — settle the request (so the chunk stops reporting Busy and
// the runtime routes around it) and let the stalled flow drain the
// channel in the background. The daemon timer is a no-op when the copy
// completed first.
func (m *Engine) abandonStalled(now float64, seq uint64, r Request, size int64) {
	if !m.busy || m.copySeq != seq || m.curAbandoned {
		return
	}
	m.curAbandoned = true
	m.stats.Abandoned++
	if fo, ok := m.Observer.(FaultObserver); ok {
		fo.CopyAbandoned(now, r.Ref, r.To, size)
	}
	if m.Faults != nil {
		m.Faults.RecordFault(now, m.state.Tier(r.Ref), r.To)
	}
	m.settle(r, false)
}
