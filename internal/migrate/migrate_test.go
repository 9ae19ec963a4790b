package migrate

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/task"
)

func setup(t *testing.T, dramCap int64) (*sim.Engine, *heap.State, *Engine) {
	t.Helper()
	return setupIn(t, sim.NewEngine(), new(heap.State), new(Engine), dramCap)
}

// setupIn is setup on the given values, which may have served earlier
// runs: it Resets each of them.
func setupIn(t *testing.T, e *sim.Engine, st *heap.State, m *Engine, dramCap int64) (*sim.Engine, *heap.State, *Engine) {
	t.Helper()
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), dramCap)
	h.CopyBW = 1e9 // 1 GB/s: easy arithmetic
	objs := []*task.Object{
		{ID: 0, Name: "A", Size: 100 * mem.MB, Chunkable: true},
		{ID: 1, Name: "B", Size: 200 * mem.MB, Chunkable: true},
	}
	if _, err := st.Reset(h, objs, []int{1: 2}); err != nil {
		t.Fatal(err)
	}
	return e.Reset(), st, m.Reset(e, st, h)
}

// TestResetEqualsNew runs one script on new values and on values Reset
// after an unrelated run on another machine and layout, which stopped
// with a copy in flight, requests queued and an observer set. The script
// covers a moot request, two promotions, a cancel, a drop for lack of
// room and a demotion; both runs must settle every request at the same
// time bits with the same outcome, notify the observer alike and end
// with the same stats.
func TestResetEqualsNew(t *testing.T) {
	script := func(e *sim.Engine, m *Engine) []string {
		obs := &seqObserver{}
		m.Observer = obs
		var log []string
		done := func(now float64, r Request, ok bool) {
			log = append(log, fmt.Sprintf("%x %v->%v %v", math.Float64bits(now), r.Ref, r.To, ok))
		}
		a, b0, b1 := heap.ChunkRef{Obj: 0}, heap.ChunkRef{Obj: 1}, heap.ChunkRef{Obj: 1, Index: 1}
		m.Enqueue(Request{Ref: a, To: mem.InNVM, ForTask: -1, Done: done}) // moot
		m.Enqueue(Request{Ref: a, To: mem.InDRAM, ForTask: 0, Done: done})
		m.Enqueue(Request{Ref: b0, To: mem.InDRAM, ForTask: 1, Done: done})
		m.Enqueue(Request{Ref: b1, To: mem.InDRAM, ForTask: 2, Done: done}) // no room
		m.CancelQueued(b0, -1)
		e.Run()
		m.Enqueue(Request{Ref: a, To: mem.InNVM, ForTask: -1, Done: done})
		e.Run()
		return append(append(log, obs.log...), fmt.Sprintf("%+v pending=%d", m.Stats(), m.PendingCount()))
	}
	e, _, m := setup(t, 150*mem.MB)
	want := script(e, m)

	// The unrelated run: three tiers, other objects and chunks, its first
	// copy still in flight when the values are reset.
	h := mem.NewTieredHMS(
		mem.TierSpec{Device: mem.OptanePM(), Capacity: 1 << 40},
		mem.TierSpec{Device: mem.CXL(), Capacity: 64 * mem.MB},
		mem.TierSpec{Device: mem.DRAM(), Capacity: 32 * mem.MB},
	)
	objs := make([]*task.Object, 5)
	for i := range objs {
		objs[i] = &task.Object{ID: task.ObjectID(i), Name: "o", Size: int64(i+1) * 8 * mem.MB, Chunkable: true}
	}
	e, st, m := sim.NewEngine(), new(heap.State), new(Engine)
	if _, err := st.Reset(h, objs, []int{3, 1, 4, 1, 5}); err != nil {
		t.Fatal(err)
	}
	m.Reset(e, st, h)
	m.Observer = &seqObserver{}
	for i := range objs {
		m.Enqueue(Request{Ref: heap.ChunkRef{Obj: task.ObjectID(i)}, To: mem.Tier(1 + i%2), ForTask: -1,
			Done: func(float64, Request, bool) {}})
	}
	if m.QueueLen() == 0 || !m.InFlight(heap.ChunkRef{Obj: 0}) {
		t.Fatal("the unrelated run has no copy in flight and nothing queued")
	}

	e, _, m = setupIn(t, e, st, m, 150*mem.MB)
	if m.Observer != nil || m.Faults != nil || m.QueueLen() != 0 || m.PendingCount() != 0 {
		t.Fatal("Reset kept the last run's observer, faults or requests")
	}
	got := script(e, m)
	if len(got) != len(want) {
		t.Fatalf("reset run logged %d lines, new run %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: reset run %q, new run %q", i, got[i], want[i])
		}
	}
}

func TestPromotionMovesChunkAndTakesCopyTime(t *testing.T) {
	e, st, m := setup(t, 512*mem.MB)
	var doneAt float64
	ref := heap.ChunkRef{Obj: 0}
	m.Enqueue(Request{Ref: ref, To: mem.InDRAM, ForTask: -1,
		Done: func(now float64, _ Request, ok bool) {
			if !ok {
				t.Error("promotion failed")
			}
			doneAt = now
		}})
	if !m.Busy(ref) || !m.BusyObject(0) {
		t.Fatal("chunk not busy while queued")
	}
	e.Run()
	want := float64(100*mem.MB) / 1e9
	if math.Abs(doneAt-want) > 1e-9 {
		t.Fatalf("copy finished at %g, want %g", doneAt, want)
	}
	if st.Tier(ref) != mem.InDRAM {
		t.Fatal("chunk did not move")
	}
	if m.Busy(ref) {
		t.Fatal("chunk busy after completion")
	}
	s := m.Stats()
	if s.Migrations != 1 || s.BytesMoved != 100*mem.MB || s.Failed() != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.CopySec-want) > 1e-9 {
		t.Fatalf("CopySec = %g", s.CopySec)
	}
}

func TestSerialFIFOProcessing(t *testing.T) {
	e, _, m := setup(t, 512*mem.MB)
	var order []int
	var times []float64
	m.Enqueue(Request{Ref: heap.ChunkRef{Obj: 0}, To: mem.InDRAM,
		Done: func(now float64, _ Request, ok bool) { order = append(order, 0); times = append(times, now) }})
	m.Enqueue(Request{Ref: heap.ChunkRef{Obj: 1, Index: 0}, To: mem.InDRAM,
		Done: func(now float64, _ Request, ok bool) { order = append(order, 1); times = append(times, now) }})
	e.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v", order)
	}
	// Serial helper: 100 MB then 100 MB (half of B) at 1 GB/s.
	if math.Abs(times[0]-0.1048576) > 1e-6 || math.Abs(times[1]-2*0.1048576) > 1e-6 {
		t.Fatalf("times = %v", times)
	}
}

func TestNoopRequestCompletesImmediately(t *testing.T) {
	e, _, m := setup(t, 512*mem.MB)
	called := false
	m.Enqueue(Request{Ref: heap.ChunkRef{Obj: 0}, To: mem.InNVM, // already there
		Done: func(now float64, _ Request, ok bool) {
			called = true
			if now != 0 || !ok {
				t.Errorf("noop done at %g ok=%v", now, ok)
			}
		}})
	e.Run()
	if !called {
		t.Fatal("done callback not called")
	}
	if m.Stats().Migrations != 0 {
		t.Fatal("noop counted as migration")
	}
}

func TestFailedPromotionWhenDRAMFull(t *testing.T) {
	e, st, m := setup(t, 64*mem.MB) // too small for the 100 MB chunk
	var ok = true
	m.Enqueue(Request{Ref: heap.ChunkRef{Obj: 0}, To: mem.InDRAM,
		Done: func(now float64, _ Request, o bool) { ok = o }})
	e.Run()
	if ok {
		t.Fatal("promotion should have failed")
	}
	if st.Tier(heap.ChunkRef{Obj: 0}) != mem.InNVM {
		t.Fatal("chunk moved despite failure")
	}
	s := m.Stats()
	if s.Failed() != 1 || s.Migrations != 0 || s.BytesMoved != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEvictThenPromote(t *testing.T) {
	// DRAM fits only one 100 MB chunk: promote A, then demote A and
	// promote B's first chunk; the FIFO order makes room just in time.
	e, st, m := setup(t, 128*mem.MB)
	refA := heap.ChunkRef{Obj: 0}
	refB := heap.ChunkRef{Obj: 1, Index: 0}
	m.Enqueue(Request{Ref: refA, To: mem.InDRAM})
	m.Enqueue(Request{Ref: refA, To: mem.InNVM})
	m.Enqueue(Request{Ref: refB, To: mem.InDRAM})
	e.Run()
	if st.Tier(refA) != mem.InNVM || st.Tier(refB) != mem.InDRAM {
		t.Fatalf("final tiers: A=%v B=%v", st.Tier(refA), st.Tier(refB))
	}
	s := m.Stats()
	if s.Migrations != 3 || s.Failed() != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOverlapAccounting(t *testing.T) {
	e, _, m := setup(t, 512*mem.MB)
	m.Enqueue(Request{Ref: heap.ChunkRef{Obj: 0}, To: mem.InDRAM})
	e.Run()
	m.AddExposed(m.Stats().CopySec / 4)
	if f := m.Stats().OverlapFraction(); math.Abs(f-0.75) > 1e-12 {
		t.Fatalf("overlap fraction = %g, want 0.75", f)
	}
	// Zero copies: overlap is trivially perfect.
	var empty Stats
	if empty.OverlapFraction() != 1 {
		t.Fatal("empty stats overlap != 1")
	}
	// Exposure exceeding copy time clamps at zero.
	over := Stats{CopySec: 1, ExposedSec: 5}
	if over.OverlapFraction() != 0 {
		t.Fatal("overlap fraction must clamp at 0")
	}
}

// countObserver tallies lifecycle notifications.
type countObserver struct{ started, finished, failedFinish, dropped int }

func (o *countObserver) CopyStarted(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64) {
	o.started++
}
func (o *countObserver) CopyFinished(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64, ok bool) {
	o.finished++
	if !ok {
		o.failedFinish++
	}
}
func (o *countObserver) CopyDropped(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64) {
	o.dropped++
}
func (o *countObserver) CopyRetried(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64, attempt int) {
}
func (o *countObserver) CopyAbandoned(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64) {}

// TestNoRoomDropDoesNotClaimChannel pins the fix for the phantom
// in-flight bug on the no-room path: a promotion dropped for lack of
// DRAM room must never appear as an in-flight (or even busy) copy — the
// pre-fix kick claimed busy/current until a zero-delay callback fired,
// and the runtime would block a ready task on that phantom.
func TestNoRoomDropDoesNotClaimChannel(t *testing.T) {
	e, st, m := setup(t, 64*mem.MB) // too small for the 100 MB chunk
	obs := &countObserver{}
	m.Observer = obs
	ref := heap.ChunkRef{Obj: 0}
	doneOK := true
	m.Enqueue(Request{Ref: ref, To: mem.InDRAM,
		Done: func(now float64, _ Request, ok bool) { doneOK = ok }})
	// The drop is decided synchronously at dequeue: the chunk must not
	// be reported busy or in flight while the Done callback is pending.
	if m.InFlight(ref) {
		t.Fatal("dropped promotion reported in flight")
	}
	if m.Busy(ref) {
		t.Fatal("dropped promotion still busy")
	}
	e.Run()
	if doneOK {
		t.Fatal("Done not called with ok=false")
	}
	if st.Tier(ref) != mem.InNVM {
		t.Fatal("chunk moved despite drop")
	}
	if obs.dropped != 1 || obs.started != 0 || obs.finished != 0 {
		t.Fatalf("observer = %+v, want exactly one drop and no copy", obs)
	}
	if s := m.Stats(); s.Failed() != 1 || s.Migrations != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMootRequestDoesNotClaimChannel pins the same fix on the moot
// path: a duplicate request whose chunk reached the target tier while
// queued must be skipped without occupying the channel, so the real
// copy behind it starts immediately and InFlight never names the moot
// chunk after its data has settled.
func TestMootRequestDoesNotClaimChannel(t *testing.T) {
	e, st, m := setup(t, 512*mem.MB)
	refA := heap.ChunkRef{Obj: 0}
	refB := heap.ChunkRef{Obj: 1, Index: 0}
	probed := false
	m.Enqueue(Request{Ref: refA, To: mem.InDRAM,
		Done: func(now float64, _ Request, ok bool) {
			// A just landed in DRAM, making the duplicate behind us moot.
			// Probe after the dequeue cascade at this same instant.
			e.After(0, func(float64) {
				probed = true
				if st.Tier(refA) != mem.InDRAM {
					t.Error("A not promoted")
				}
				if m.InFlight(refA) || m.Busy(refA) {
					t.Error("moot duplicate claims the channel or stays busy")
				}
				if !m.InFlight(refB) {
					t.Error("real copy behind the moot duplicate not started")
				}
			})
		}})
	m.Enqueue(Request{Ref: refA, To: mem.InDRAM}) // becomes moot at dequeue
	m.Enqueue(Request{Ref: refB, To: mem.InDRAM})
	e.Run()
	if !probed {
		t.Fatal("probe never ran")
	}
	if s := m.Stats(); s.Migrations != 2 || s.Failed() != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestQueueLenAndBusyObject(t *testing.T) {
	e, _, m := setup(t, 512*mem.MB)
	m.Enqueue(Request{Ref: heap.ChunkRef{Obj: 1, Index: 0}, To: mem.InDRAM})
	m.Enqueue(Request{Ref: heap.ChunkRef{Obj: 1, Index: 1}, To: mem.InDRAM})
	// First request is immediately in flight, second still queued.
	if m.QueueLen() != 1 {
		t.Fatalf("queue len = %d, want 1", m.QueueLen())
	}
	if !m.BusyObject(1) {
		t.Fatal("object with queued chunks not busy")
	}
	if m.BusyObject(0) {
		t.Fatal("untouched object busy")
	}
	e.Run()
	if m.BusyObject(1) || m.QueueLen() != 0 {
		t.Fatal("engine not drained")
	}
}
