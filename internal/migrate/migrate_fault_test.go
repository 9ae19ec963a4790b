package migrate

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/mem"
)

// seqObserver records the full lifecycle sequence, resilience events
// included, as compact strings.
type seqObserver struct{ log []string }

func (o *seqObserver) add(ev string, ref heap.ChunkRef, extra string) {
	o.log = append(o.log, ev+":"+ref.String()+extra)
}
func (o *seqObserver) CopyStarted(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64) {
	o.add("start", ref, "")
}
func (o *seqObserver) CopyFinished(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64, ok bool) {
	o.add("finish", ref, fmt.Sprintf(":%v", ok))
}
func (o *seqObserver) CopyDropped(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64) {
	o.add("drop", ref, "")
}
func (o *seqObserver) CopyRetried(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64, attempt int) {
	o.add("retry", ref, fmt.Sprintf(":%d", attempt))
}
func (o *seqObserver) CopyAbandoned(now float64, ref heap.ChunkRef, to mem.Tier, bytes int64) {
	o.add("abandon", ref, "")
}

// TestObserverLifecycleSequence pins the exact observer sequence across
// the three ways a request can end without a successful copy: cancelled
// while queued (no observer events at all), moot at dequeue (likewise
// silent), and dropped for lack of room (CopyDropped with no
// CopyStarted). Only the one real copy contributes a start/finish pair.
func TestObserverLifecycleSequence(t *testing.T) {
	e, _, m := setup(t, 128*mem.MB) // fits exactly one 100 MB chunk
	obs := &seqObserver{}
	m.Observer = obs
	refA := heap.ChunkRef{Obj: 0}
	refB := heap.ChunkRef{Obj: 1, Index: 0}

	var calls []string
	done := func(name string) func(float64, Request, bool) {
		return func(_ float64, _ Request, ok bool) { calls = append(calls, fmt.Sprintf("%s:%v", name, ok)) }
	}
	m.Enqueue(Request{Ref: refA, To: mem.InDRAM, ForTask: -1, Done: done("A")})  // starts copying
	m.Enqueue(Request{Ref: refB, To: mem.InDRAM, ForTask: -1, Done: done("B1")}) // queued, then cancelled
	if n := m.CancelQueued(refB, -2); n != 1 {
		t.Fatalf("cancelled %d requests, want 1", n)
	}
	m.Enqueue(Request{Ref: refA, To: mem.InDRAM, ForTask: -1, Done: done("A2")}) // moot at dequeue
	m.Enqueue(Request{Ref: refB, To: mem.InDRAM, ForTask: -1, Done: done("B2")}) // dropped: no room behind A
	e.Run()

	a, b := refA.String(), refB.String()
	wantObs := []string{"start:" + a, "finish:" + a + ":true", "drop:" + b}
	if fmt.Sprint(obs.log) != fmt.Sprint(wantObs) {
		t.Fatalf("observer sequence = %v, want %v", obs.log, wantObs)
	}
	wantCalls := []string{"B1:false", "A:true", "A2:true", "B2:false"}
	if fmt.Sprint(calls) != fmt.Sprint(wantCalls) {
		t.Fatalf("done sequence = %v, want %v", calls, wantCalls)
	}
	if m.PendingCount() != 0 || m.QueueLen() != 0 {
		t.Fatal("engine not quiescent")
	}
}

// TestDuplicateEnqueuesNeverUnderflowPending is the settle-unification
// regression test: any mix of duplicate, moot, cancelled, and real
// requests must leave the pending map empty — never negative — so Busy
// can never stick or underflow after quiescence.
func TestDuplicateEnqueuesNeverUnderflowPending(t *testing.T) {
	e, st, m := setup(t, 512*mem.MB)
	ref := heap.ChunkRef{Obj: 0}
	doneCalls := 0
	for i := 0; i < 4; i++ {
		m.Enqueue(Request{Ref: ref, To: mem.InDRAM, ForTask: -1,
			Done: func(float64, Request, bool) { doneCalls++ }})
	}
	e.Run()
	if doneCalls != 4 {
		t.Fatalf("%d done callbacks, want 4", doneCalls)
	}
	if st.Tier(ref) != mem.InDRAM {
		t.Fatal("chunk not promoted")
	}
	if m.Busy(ref) {
		t.Fatal("chunk busy after quiescence")
	}
	if m.PendingCount() != 0 {
		t.Fatalf("pending count = %d after quiescence", m.PendingCount())
	}
	// A fresh request for the settled chunk at its tier completes
	// immediately — the pending map took no damage from the duplicates.
	ok := false
	m.Enqueue(Request{Ref: ref, To: mem.InDRAM, ForTask: -1,
		Done: func(_ float64, _ Request, o bool) { ok = o }})
	e.Run()
	if !ok || m.PendingCount() != 0 {
		t.Fatal("post-quiescence no-op request misbehaved")
	}
	if s := m.Stats(); s.Migrations != 1 || s.Failed() != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// armFaults binds a schedule to the engine pair used by setup.
func armFaults(m *Engine, s *fault.Schedule) *fault.Injector {
	in := fault.NewInjector(m.sim, s)
	in.Install()
	m.Faults = in
	return in
}

func TestTransientFailureRetriesAndSucceeds(t *testing.T) {
	e, st, m := setup(t, 512*mem.MB)
	obs := &seqObserver{}
	m.Observer = obs
	armFaults(m, &fault.Schedule{Events: []fault.Event{
		{At: 0, Until: 10, Kind: fault.TransientCopyFail, Tier: mem.InDRAM, From: fault.AnySource, Count: 1},
	}})
	ref := heap.ChunkRef{Obj: 0}
	var doneAt float64
	var doneOK bool
	m.Enqueue(Request{Ref: ref, To: mem.InDRAM, ForTask: -1,
		Done: func(now float64, _ Request, ok bool) { doneAt, doneOK = now, ok }})
	e.Run()
	if !doneOK || st.Tier(ref) != mem.InDRAM {
		t.Fatalf("retried copy did not land: ok=%v tier=%v", doneOK, st.Tier(ref))
	}
	// Two full copies plus one backoff of BackoffBaseSec.
	copySec := float64(100*mem.MB) / 1e9
	want := 2*copySec + BackoffBaseSec
	if math.Abs(doneAt-want) > 1e-9 {
		t.Fatalf("done at %g, want %g", doneAt, want)
	}
	s := m.Stats()
	if s.Retries != 1 || s.Migrations != 1 || s.Abandoned != 0 || s.Failed() != 0 {
		t.Fatalf("stats = %+v", s)
	}
	a := ref.String()
	wantObs := []string{"start:" + a, "finish:" + a + ":false", "retry:" + a + ":1", "start:" + a, "finish:" + a + ":true"}
	if fmt.Sprint(obs.log) != fmt.Sprint(wantObs) {
		t.Fatalf("observer sequence = %v, want %v", obs.log, wantObs)
	}
}

func TestRetryBudgetExhaustionAbandons(t *testing.T) {
	e, st, m := setup(t, 512*mem.MB)
	faults := 0
	in := armFaults(m, &fault.Schedule{Events: []fault.Event{
		{At: 0, Until: 100, Kind: fault.TransientCopyFail, Tier: mem.InDRAM, From: fault.AnySource, Count: 100},
	}})
	in.OnCopyFault = func(float64, mem.Tier, mem.Tier) { faults++ }
	ref := heap.ChunkRef{Obj: 0}
	doneOK := true
	m.Enqueue(Request{Ref: ref, To: mem.InDRAM, ForTask: -1,
		Done: func(_ float64, _ Request, ok bool) { doneOK = ok }})
	e.Run()
	if doneOK || st.Tier(ref) != mem.InNVM {
		t.Fatal("abandoned request reported success or moved the chunk")
	}
	s := m.Stats()
	if s.Retries != MaxRetries || s.Abandoned != 1 || s.Migrations != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", s.Failed())
	}
	if faults != MaxRetries+1 { // one per failed attempt
		t.Fatalf("OnCopyFault fired %d times, want %d", faults, MaxRetries+1)
	}
	if m.Busy(ref) || m.PendingCount() != 0 {
		t.Fatal("abandoned chunk still busy")
	}
}

// TestStalledCopyTimesOut pins the per-copy timeout: a stall inflating
// the copy 10x trips the timeout at TimeoutFactor x the nominal
// duration, the request settles early (chunk no longer Busy), and the
// flow drains the channel in the background without moving data.
func TestStalledCopyTimesOut(t *testing.T) {
	e, st, m := setup(t, 512*mem.MB)
	obs := &seqObserver{}
	m.Observer = obs
	armFaults(m, &fault.Schedule{Events: []fault.Event{
		{At: 0, Until: 100, Kind: fault.CopyStall, Factor: 10},
	}})
	ref := heap.ChunkRef{Obj: 0}
	var doneAt float64
	doneOK := true
	// Enqueue once the stall window is live: kick samples the inflation
	// at copy start.
	const start = 0.5
	e.At(start, func(float64) {
		m.Enqueue(Request{Ref: ref, To: mem.InDRAM, ForTask: -1,
			Done: func(now float64, _ Request, ok bool) { doneAt, doneOK = now, ok }})
	})
	// The moment the timeout settles the request, the chunk must stop
	// reporting Busy even though the stalled flow still drains.
	nominal := float64(100*mem.MB) / 1e9
	e.At(start+TimeoutFactor*nominal+1e-6, func(float64) {
		if m.Busy(ref) {
			t.Error("chunk busy after timeout settled it")
		}
	})
	end := e.Run()
	if doneOK || st.Tier(ref) != mem.InNVM {
		t.Fatal("stalled copy reported success or moved the chunk")
	}
	if math.Abs(doneAt-(start+TimeoutFactor*nominal)) > 1e-9 {
		t.Fatalf("abandoned at %g, want %g", doneAt, start+TimeoutFactor*nominal)
	}
	// The stalled flow itself drains at 10x nominal.
	if math.Abs(end-(start+10*nominal)) > 1e-6 {
		t.Fatalf("engine drained at %g, want %g", end, start+10*nominal)
	}
	s := m.Stats()
	if s.Abandoned != 1 || s.Retries != 0 || s.Migrations != 0 {
		t.Fatalf("stats = %+v", s)
	}
	a := ref.String()
	wantObs := []string{"start:" + a, "abandon:" + a, "finish:" + a + ":false"}
	if fmt.Sprint(obs.log) != fmt.Sprint(wantObs) {
		t.Fatalf("observer sequence = %v, want %v", obs.log, wantObs)
	}
}

// TestFaultFreeScheduleKeepsLegacyTiming: an armed injector whose
// schedule never fires must not change a copy's timing or stats.
func TestFaultFreeScheduleKeepsLegacyTiming(t *testing.T) {
	e, _, m := setup(t, 512*mem.MB)
	armFaults(m, &fault.Schedule{Events: []fault.Event{
		{At: 1e6, Until: 1e6 + 1, Kind: fault.CopyStall, Factor: 10},
	}})
	var doneAt float64
	m.Enqueue(Request{Ref: heap.ChunkRef{Obj: 0}, To: mem.InDRAM, ForTask: -1,
		Done: func(now float64, _ Request, _ bool) { doneAt = now }})
	e.Run()
	want := float64(100*mem.MB) / 1e9
	if math.Abs(doneAt-want) > 1e-9 {
		t.Fatalf("copy finished at %g, want %g", doneAt, want)
	}
	if s := m.Stats(); s.Retries != 0 || s.Abandoned != 0 || s.Migrations != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
