package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// soloBaseline runs req sequentially on a fresh single-worker server,
// returning the canonical (uncontended) response.
func soloBaseline(t *testing.T, req RunRequest) RunResponse {
	t.Helper()
	s := New(Config{Workers: 1, QueueDepth: 4, ShedHigh: 0.99, ShedLow: 0.5})
	defer s.Close()
	r := req
	resp, err := s.Do(&r)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	if resp.Error != "" {
		t.Fatalf("solo run failed: %s", resp.Error)
	}
	return resp
}

// TestTenantIsolation is the bit-identity contract: two tenants running
// the same workload under different policies, concurrently on one
// server, must produce results byte-identical to their solo runs —
// Float64bits makespans and trace SHA-256s, not approximate equality.
func TestTenantIsolation(t *testing.T) {
	reqA := RunRequest{Tenant: "alice", Workload: "heat", Scale: 5, Policy: "tahoe", Trace: true}
	reqB := RunRequest{Tenant: "bob", Workload: "heat", Scale: 5, Policy: "xmem", Trace: true}
	soloA := soloBaseline(t, reqA)
	soloB := soloBaseline(t, reqB)
	if soloA.TraceSHA256 == "" || soloB.TraceSHA256 == "" {
		t.Fatal("solo runs recorded no trace")
	}
	if math.Float64bits(soloA.TimeSec) == math.Float64bits(soloB.TimeSec) {
		t.Fatal("policies indistinguishable; test would prove nothing")
	}

	// High watermarks so the shared server never enters degraded mode
	// (degraded runs legitimately differ).
	s := New(Config{Workers: 4, QueueDepth: 64, ShedHigh: 0.95, ShedLow: 0.5})
	defer s.Close()

	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan string, 2*iters)
	check := func(req RunRequest, want RunResponse) {
		defer wg.Done()
		r := req
		got, err := s.Do(&r)
		if err != nil {
			errs <- err.Error()
			return
		}
		switch {
		case got.Error != "":
			errs <- got.Error
		case math.Float64bits(got.TimeSec) != math.Float64bits(want.TimeSec):
			errs <- "makespan bits differ from solo run"
		case got.TraceSHA256 != want.TraceSHA256:
			errs <- "trace bytes differ from solo run"
		case got.Tasks != want.Tasks:
			errs <- "task count differs from solo run"
		}
	}
	for i := 0; i < iters; i++ {
		wg.Add(2)
		go check(reqA, soloA)
		go check(reqB, soloB)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("tenant isolation violated: %s", e)
	}
}

// seededGraph is an inline graph of nobj objects and ntask tasks of
// three kinds, each task naming one to four neighbouring objects.
func seededGraph(seed int64, nobj, ntask int) *GraphSpec {
	r := rand.New(rand.NewSource(seed))
	g := &GraphSpec{Name: fmt.Sprintf("seeded%d", seed)}
	for i := 0; i < nobj; i++ {
		g.Objects = append(g.Objects, ObjectSpec{Size: 1 + r.Int63n(8<<20), NoChunk: r.Intn(4) == 0})
	}
	modes := []string{"in", "out", "inout"}
	for i := 0; i < ntask; i++ {
		ts := TaskSpec{Kind: fmt.Sprintf("k%d", r.Intn(3)), CPUSec: 1e-4 * r.Float64()}
		first := r.Intn(nobj)
		for k := 0; k <= r.Intn(4); k++ {
			ts.Accesses = append(ts.Accesses, AccessSpec{
				Obj: (first + k) % nobj, Mode: modes[r.Intn(3)], Loads: r.Int63n(1 << 12), Stores: r.Int63n(1 << 12),
			})
		}
		g.Tasks = append(g.Tasks, ts)
	}
	return g
}

// TestJobReuseIsolation: one tenant's pooled run contexts serve large
// and small named graphs, inline graphs and traced runs from several
// goroutines at once, each context building every graph in the storage
// of the one before. Every answer must match its solo run: the
// makespan's bits, the trace SHA-256, the task count and the graph's
// name. CI runs it under -race.
func TestJobReuseIsolation(t *testing.T) {
	reqs := []RunRequest{
		{Workload: "cholesky", Scale: 10, Policy: "tahoe", Trace: true},
		{Workload: "heat", Scale: 2, Policy: "tahoe"},
		{Graph: seededGraph(1, 40, 300), Policy: "tahoe", Trace: true},
		{Workload: "sparselu", Scale: 12, Policy: "phase"},
		{Graph: seededGraph(2, 3, 5), Policy: "firsttouch", Trace: true},
		{Workload: "fft", Scale: 4, Policy: "nvm", Trace: true},
		{Workload: "cg", Scale: 6, Policy: "tahoe"},
		{Graph: seededGraph(3, 12, 60), Policy: "tahoe"},
	}
	solo := make([]RunResponse, len(reqs))
	for i := range reqs {
		reqs[i].Tenant = "one"
		solo[i] = soloBaseline(t, reqs[i])
	}

	s := New(Config{Workers: 4, QueueDepth: 64, ShedHigh: 0.95, ShedLow: 0.5})
	defer s.Close()
	const goroutines, passes = 4, 2
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*passes*len(reqs))
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < passes*len(reqs); k++ {
				i := (w*3 + k) % len(reqs)
				r := reqs[i]
				got, err := s.Do(&r)
				want := &solo[i]
				switch {
				case err != nil:
					errs <- err.Error()
				case got.Error != "":
					errs <- got.Error
				case math.Float64bits(got.TimeSec) != math.Float64bits(want.TimeSec):
					errs <- fmt.Sprintf("request %d: makespan bits differ from solo run", i)
				case got.TraceSHA256 != want.TraceSHA256:
					errs <- fmt.Sprintf("request %d: trace bytes differ from solo run", i)
				case got.Tasks != want.Tasks || got.Workload != want.Workload:
					errs <- fmt.Sprintf("request %d: %d tasks of %q, solo run %d of %q", i, got.Tasks, got.Workload, want.Tasks, want.Workload)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("pooled run contexts leaked between runs: %s", e)
	}
	if st := s.Snapshot(); st.Degraded != 0 {
		t.Fatalf("%d runs served degraded", st.Degraded)
	}
}

// TestJobKeep: a pooled run context keeps its trace arena and graph
// builder while they fit in jobKeep together, and drops whichever has
// grown past it.
func TestJobKeep(t *testing.T) {
	big := RunRequest{Tenant: "t", Workload: "cholesky", Scale: 32, Policy: "nvm"}
	var b task.Builder
	wl, _ := workloads.ByName(big.Workload)
	wl.Build(workloads.Params{Scale: big.Scale, Into: &b})
	if b.Footprint() <= jobKeep {
		t.Fatalf("cholesky at scale %d builds in %d bytes, within jobKeep", big.Scale, b.Footprint())
	}

	s := New(Config{Workers: 1, QueueDepth: 4, ShedHigh: 0.99, ShedLow: 0.5})
	defer s.Close()
	// run serves req and returns the run context it went back to the
	// free list in.
	run := func(req RunRequest) (RunResponse, *job) {
		t.Helper()
		resp, err := s.Do(&req)
		if err != nil || resp.Error != "" {
			t.Fatalf("%+v: %v %s", req, err, resp.Error)
		}
		free := s.shardFor(req.Tenant).free
		if len(free) != 1 {
			t.Fatalf("%d pooled run contexts, want 1", len(free))
		}
		return resp, free[0]
	}
	small := RunRequest{Tenant: "t", Workload: "heat", Scale: 2, Policy: "nvm", Trace: true}
	if _, j := run(small); j.tr.Footprint() == 0 || j.bld.Footprint() == 0 {
		t.Fatal("a run within the budget dropped its trace arena or its builder")
	}
	// A traced run past the budget on its trace alone: 64-byte events
	// let big's trace fit.
	traced := big
	traced.Scale, traced.Trace = 36, true
	resp, j := run(traced)
	if resp.TraceEvents*int(unsafe.Sizeof(trace.Event{}))+resp.Tasks*int(unsafe.Sizeof(trace.Dispatch{})) <= jobKeep {
		t.Fatalf("%d trace events and %d dispatches fit in jobKeep", resp.TraceEvents, resp.Tasks)
	}
	if j.tr.Footprint() != 0 || j.bld.Footprint() != 0 {
		t.Fatalf("after a traced run past the budget the context keeps %d trace and %d builder bytes", j.tr.Footprint(), j.bld.Footprint())
	}
	run(small)
	if _, j := run(big); j.bld.Footprint() != 0 || j.tr.Footprint() == 0 {
		t.Fatalf("after a build past the budget the context keeps %d builder and %d trace bytes", j.bld.Footprint(), j.tr.Footprint())
	}
}

// TestDegradedMode drives the queue past the shed watermark and checks
// the service answers degraded (capped, traceless, marked) instead of
// refusing — and that the mode releases once the backlog clears.
func TestDegradedMode(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, ShedHigh: 0.5, ShedLow: 0.25, DegradedScaleCap: 4})
	defer s.Close()

	// Two waves: the first backs up the single worker with slow runs
	// (cholesky scale 16 is ~10ms here), then the second wave admits
	// against a visibly full queue and must be served degraded.
	const n = 14
	var wg sync.WaitGroup
	resps := make([]RunResponse, n)
	launch := func(i int) {
		defer wg.Done()
		req := RunRequest{Tenant: "t", Workload: "cholesky", Scale: 16, Policy: "tahoe", Trace: true}
		resp, err := s.Do(&req)
		if err != nil {
			t.Errorf("run %d: %v", i, err)
			return
		}
		resps[i] = resp
	}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go launch(i)
	}
	// Wait until the backlog actually shows before the second wave.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if st := s.Snapshot(); st.QueueLen >= st.QueueCap/2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never backed up")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 6; i < n; i++ {
		wg.Add(1)
		go launch(i)
	}
	wg.Wait()

	degraded := 0
	for _, r := range resps {
		if r.Error != "" {
			t.Fatalf("run failed: %s", r.Error)
		}
		if r.Degraded {
			degraded++
			if r.TraceSHA256 != "" || r.TraceEvents != 0 {
				t.Fatal("degraded run recorded a trace; tracing should be shed")
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded runs despite 16 runs against a 1-worker, depth-4 queue")
	}
	if got := s.Snapshot().Degraded; got != uint64(degraded) {
		t.Fatalf("stats count %d degraded runs, responses say %d", got, degraded)
	}

	// An admission against the now-empty queue releases the mode.
	req := RunRequest{Tenant: "t", Workload: "heat", Policy: "tahoe", Trace: true}
	resp, err := s.Do(&req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatal("still degraded with an empty queue")
	}
	if resp.TraceSHA256 == "" {
		t.Fatal("healthy run shed its trace")
	}
	if s.Snapshot().InDegraded {
		t.Fatal("stats still report degraded after release")
	}
}

// TestDrainRefusesAndCompletes checks the shutdown contract: draining
// refuses new work but every accepted run completes and is delivered.
func TestDrainRefusesAndCompletes(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})

	const n = 8
	var wg sync.WaitGroup
	var delivered sync.WaitGroup
	wg.Add(n)
	delivered.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer delivered.Done()
			req := RunRequest{Workload: "heat", Scale: 5}
			resp, err := s.Do(&req)
			wg.Done()
			if err != nil {
				t.Errorf("accepted run lost: %v", err)
				return
			}
			if resp.Error != "" || resp.TimeSec <= 0 {
				t.Errorf("accepted run returned no result: %+v", resp)
			}
		}()
	}
	// Do admits before returning, so after all sends are in flight a
	// drain must still deliver all n results.
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	delivered.Wait()

	req := RunRequest{Workload: "heat"}
	if _, err := s.Do(&req); err != ErrDraining {
		t.Fatalf("post-drain admission returned %v, want ErrDraining", err)
	}
	st := s.Snapshot()
	if !st.Draining {
		t.Fatal("stats do not report draining")
	}
	if st.Accepted != uint64(n) || st.Completed+st.Failed != st.Accepted || st.Failed != 0 {
		t.Fatalf("accounting: accepted=%d completed=%d failed=%d", st.Accepted, st.Completed, st.Failed)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestInlineGraph runs a request-supplied task graph end to end.
func TestInlineGraph(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	defer s.Close()

	g := &GraphSpec{
		Objects: []ObjectSpec{
			{Name: "a", Size: 1 << 20},
			{Name: "b", Size: 1 << 20},
		},
		Tasks: []TaskSpec{
			{Kind: "produce", CPUSec: 1e-4, Accesses: []AccessSpec{{Obj: 0, Mode: "out", Stores: 1 << 14}}},
			{Kind: "transform", CPUSec: 1e-4, Accesses: []AccessSpec{
				{Obj: 0, Mode: "in", Loads: 1 << 14},
				{Obj: 1, Mode: "out", Stores: 1 << 14},
			}},
			{Kind: "consume", CPUSec: 1e-4, Accesses: []AccessSpec{{Obj: 1, Mode: "in", Loads: 1 << 14, MLP: 4}}},
		},
	}
	req := RunRequest{Tenant: "inline", Graph: g, Policy: "tahoe", Trace: true}
	resp, err := s.Do(&req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("inline run failed: %s", resp.Error)
	}
	if resp.Workload != "inline" || resp.Tasks != 3 || resp.TimeSec <= 0 {
		t.Fatalf("inline run: %+v", resp)
	}
	if resp.TraceEvents == 0 || resp.TraceSHA256 == "" {
		t.Fatal("inline run recorded no trace")
	}

	// Determinism holds for inline graphs too.
	again, err := s.Do(&RunRequest{Tenant: "inline", Graph: g, Policy: "tahoe", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.TimeSec) != math.Float64bits(resp.TimeSec) || again.TraceSHA256 != resp.TraceSHA256 {
		t.Fatal("inline graph run is not deterministic")
	}
}

// badRequests are requests Resolve refuses.
func badRequests() []RunRequest {
	return []RunRequest{
		{},
		{Workload: "no-such-workload"},
		{Workload: "heat", Policy: "no-such-policy"},
		{Workload: "heat", Scheduler: "no-such-scheduler"},
		{Workload: "heat", Faults: "not-a-spec"},
		{Workload: "heat", Feedback: "alpha=2"},
		{Workload: "heat", Scale: -1},
		{Workload: "heat", Graph: &GraphSpec{}},
		{Graph: &GraphSpec{Objects: []ObjectSpec{{Size: 1}}, Tasks: []TaskSpec{{Kind: "k", Accesses: []AccessSpec{{Obj: 7, Mode: "in"}}}}}},
		{Graph: &GraphSpec{Objects: []ObjectSpec{{Size: 1}}, Tasks: []TaskSpec{{Kind: "k", Accesses: []AccessSpec{{Obj: 0, Mode: "sideways"}}}}}},
		{Graph: &GraphSpec{Objects: []ObjectSpec{{Size: 1}}, Tasks: []TaskSpec{{Kind: "k", Accesses: []AccessSpec{{Obj: 0, Mode: "in", MLP: 0.5}}}}}},
		{Graph: pairGraph(1025, 1024)}, // one pair past MaxInlinePairs
		{Workload: "fft", Scale: 64},   // sizes overflow int64
		{Workload: "fft", Scale: 59},
		{Workload: "fft", Scale: -1},
		{Workload: "heat", Scale: 2000000, Policy: "nvm"}, // 32M tasks
		{Workload: "nqueens", Scale: 171},                 // CPU estimate +Inf
		{Workload: "heat", Workers: -1},
		{Workload: "heat", Workers: core.MaxWorkers + 1},
		{Workload: "heat", Lookahead: -1},
		{Workload: "heat", Faults: "rate=100,seed=7,horizon=1,tiers=3"}, // tier 2 on a 2-tier machine
	}
}

// TestResolveRejects checks request validation fails fast, before any
// worker is consumed.
func TestResolveRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()

	for i, req := range badRequests() {
		r := req
		if _, err := s.Do(&r); err == nil {
			t.Errorf("request %d accepted, want validation error", i)
		}
	}
	if st := s.Snapshot(); st.Accepted != 0 {
		t.Fatalf("invalid requests consumed %d admissions", st.Accepted)
	}
}

// TestResolveRefusesDirectly: Resolve itself refuses every request the
// daemon refuses, so the CLIs, which resolve through it, refuse them too.
func TestResolveRefusesDirectly(t *testing.T) {
	for i, req := range badRequests() {
		if run, err := req.Resolve(); err == nil {
			t.Errorf("request %d resolved to %+v, want an error", i, run)
		}
	}
}

// pairGraph is an inline graph with nk kinds and nobj 64-byte objects:
// task i, of kind "k<i mod nk>", reads object i mod nobj, so every kind
// and every object has a task.
func pairGraph(nk, nobj int) *GraphSpec {
	g := &GraphSpec{Objects: make([]ObjectSpec, nobj)}
	for i := range g.Objects {
		g.Objects[i].Size = 64
	}
	for i := 0; i < max(nk, nobj); i++ {
		g.Tasks = append(g.Tasks, TaskSpec{
			Kind:     fmt.Sprintf("k%d", i%nk),
			Accesses: []AccessSpec{{Obj: i % nobj, Mode: "in", Loads: 1}},
		})
	}
	return g
}

// TestRetryAfterFloor pins the Retry-After floor of one second before
// any run has been observed.
func TestRetryAfterFloor(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	defer s.Close()
	if got := s.RetryAfterSec(); got < 1 {
		t.Fatalf("RetryAfterSec = %d, want >= 1", got)
	}
}
