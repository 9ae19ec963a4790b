package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestGoldenRunsPooled runs the golden grid in reverse order, so each run
// inherits the working set of a different predecessor than in
// TestGoldenRuns, and then from four goroutines at once, so working sets
// also change hands between goroutines mid-grid. Every line must still
// equal the golden file: nothing a run leaves in a pooled working set may
// reach the next run's results.
func TestGoldenRunsPooled(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases, want := goldenCases(t), goldenWant(t)
	if len(cases) != len(want) {
		t.Fatalf("%d runs, golden file has %d", len(cases), len(want))
	}
	check := func(order string, i int, got string) {
		if got != want[i] {
			t.Errorf("%s: run %d differs:\n got  %s\n want %s", order, i, got, want[i])
		}
	}
	for i := len(cases) - 1; i >= 0; i-- {
		c := cases[i]
		check("reversed", i, goldenRun(t, c.name, c.app, c.scale, c.cfg))
	}

	var next atomic.Int64
	next.Store(int64(len(cases)))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(-1)); i >= 0; i = int(next.Add(-1)) {
				c := cases[i]
				check("concurrent", i, goldenRun(t, c.name, c.app, c.scale, c.cfg))
			}
		}()
	}
	wg.Wait()
}

// TestRunRecycle checks the gate of the runner list on runners that just
// served a traced Tahoe run with a queue callback: a runner holding more
// than runBudget bytes is dropped, a smaller one is kept, and either way
// recycling clears every reference into the run it served. (Both runners
// are genuine, so a later run in this binary may take the kept one.)
func TestRunRecycle(t *testing.T) {
	s, err := workloads.ByName("heat")
	if err != nil {
		t.Fatal(err)
	}
	g := s.Build(workloads.Params{Scale: 6}).Graph
	served := func() *runner {
		cfg := DefaultConfig(goldenMachines[1].hms)
		cfg.Policy = Tahoe
		cfg.Trace = &trace.Trace{}
		cfg.NewQueue = func(int, func(task.TaskID) bool) sched.Queue { return sched.NewFIFO() }
		r := new(runner)
		if _, err := r.run(g, cfg); err != nil {
			t.Fatal(err)
		}
		if r.mig.Stats().Migrations == 0 || len(r.ptVal.future) == 0 {
			t.Fatal("the run neither migrated nor planned")
		}
		// Leave stale entries past the ends of the reused slices, as a run
		// that blocked tasks and planned by level would.
		r.blocked = append(r.blocked[:0], blockedTask{t: g.Tasks[0]})[:0]
		r.ptVal.byLevel = append(r.ptVal.byLevel[:0], []*task.Task{g.Tasks[1]})
		return r
	}
	clean := func(r *runner) bool {
		if r.g != nil || r.cfg.Trace != nil || r.cfg.NewQueue != nil ||
			r.queue != nil || r.levels != nil || r.mig.Observer != nil || r.e.Now() != 0 {
			return false
		}
		for _, b := range r.blocked[:cap(r.blocked)] {
			if b.t != nil {
				return false
			}
		}
		p := &r.ptVal
		for _, tk := range p.future[:cap(p.future)] {
			if tk != nil {
				return false
			}
		}
		for _, lv := range p.byLevel[:cap(p.byLevel)] {
			for _, tk := range lv[:cap(lv)] {
				if tk != nil {
					return false
				}
			}
		}
		for _, tf := range r.flowPool {
			if tf.t != nil {
				return false
			}
		}
		return true
	}

	huge := served()
	huge.ptVal.taskBuf = make([]uint64, runBudget/8+1)
	if huge.recycle() {
		t.Errorf("a runner of %d bytes was pooled; the budget is %d", huge.footprint(), runBudget)
	}
	if !clean(huge) {
		t.Error("a dropped runner kept references into its run")
	}

	small := served()
	for _, ok := runners.Get(); ok; _, ok = runners.Get() {
		// Earlier runs in this binary may have filled the list.
	}
	if !small.recycle() {
		t.Errorf("a runner of %d bytes was dropped; the budget is %d", small.footprint(), runBudget)
	}
	if !clean(small) {
		t.Error("a pooled runner kept references into its run")
	}
}

// TestPooledRunnerReleasesRun is the leak check: once Run has returned
// and its runner sits in the pool, nothing the runner holds may keep the
// run's graph or trace alive. The test keeps every runner reachable
// itself (through testHook), so the check does not depend on when the
// pool drops its items: after each run, one GC must finalize that run's
// graph and trace.
func TestPooledRunnerReleasesRun(t *testing.T) {
	var held []*runner
	testHook = func(r *runner) { held = append(held, r) }
	defer func() { testHook = nil }()
	faults, err := fault.ParseSpec("rate=200,seed=7,horizon=0.05,tiers=2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(app string, h mem.HMS, p Policy, faulty bool) (graphGone, traceGone chan struct{}) {
		s, err := workloads.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		g := s.Build(workloads.Params{Scale: 6}).Graph
		cfg := DefaultConfig(h)
		cfg.Policy = p
		cfg.Trace = &trace.Trace{}
		if faulty {
			cfg.Faults, cfg.Feedback.Enabled = faults, true
		}
		graphGone, traceGone = make(chan struct{}), make(chan struct{})
		runtime.SetFinalizer(g, func(*task.Graph) { close(graphGone) })
		runtime.SetFinalizer(cfg.Trace, func(*trace.Trace) { close(traceGone) })
		if _, err := Run(g, cfg); err != nil {
			t.Fatal(err)
		}
		return graphGone, traceGone
	}
	for _, c := range []struct {
		app    string
		h      mem.HMS
		p      Policy
		faulty bool
	}{
		{"heat", goldenMachines[1].hms, Tahoe, false},
		{"heat", goldenMachines[0].hms, PhaseBased, false},
		{"cholesky", mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 32*mem.MB), Tahoe, true},
		{"cholesky", goldenMachines[0].hms, FirstTouch, false},
	} {
		graphGone, traceGone := run(c.app, c.h, c.p, c.faulty)
		runtime.GC()
		for _, gone := range []struct {
			what string
			ch   chan struct{}
		}{{"graph", graphGone}, {"trace", traceGone}} {
			select {
			case <-gone.ch:
			case <-time.After(10 * time.Second):
				t.Errorf("%s %v: the run's %s was not finalized: its runner still references it", c.app, c.p, gone.what)
			}
		}
	}
	if len(held) != 4 {
		t.Fatalf("testHook saw %d runs, want 4", len(held))
	}
	runtime.KeepAlive(held)
}

// panicQueue is a ready queue whose Push panics when dispatch hands back
// a task it popped before: a task that blocked on an in-flight copy and
// is now being released, so the panic leaves the runner holding blocked
// tasks.
type panicQueue struct {
	sched.Queue
	popped map[task.TaskID]bool
}

func (q *panicQueue) Push(t *task.Task, worker int) {
	if q.popped[t.ID] {
		panic("panicQueue: a blocked task is being released")
	}
	q.Queue.Push(t, worker)
}

func (q *panicQueue) Pop(worker int) (*task.Task, bool) {
	t, ok := q.Queue.Pop(worker)
	if ok {
		q.popped[t.ID] = true
	}
	return t, ok
}

// TestPanickedRunIsNotPooled panics a Tahoe run from its ready queue
// while it releases a task that blocked on a copy, recovers, and then
// runs the golden grid on the same goroutine: a run that panics must not
// hand its runner to the runs after it, which must still equal the
// golden file. (Were the runner pooled, the next run would dispatch the
// blocked entries recycle cleared, and crash.)
func TestPanickedRunIsNotPooled(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	cases, want := goldenCases(t), goldenWant(t)
	s, err := workloads.ByName("heat")
	if err != nil {
		t.Fatal(err)
	}
	g := s.Build(workloads.Params{Scale: 6}).Graph
	cfg := DefaultConfig(goldenMachines[0].hms)
	cfg.Policy = Tahoe
	cfg.NewQueue = func(int, func(task.TaskID) bool) sched.Queue {
		return &panicQueue{Queue: sched.NewFIFO(), popped: map[task.TaskID]bool{}}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the run did not panic")
			}
		}()
		_, _ = Run(g, cfg)
	}()
	for i, c := range cases {
		if got := goldenRun(t, c.name, c.app, c.scale, c.cfg); got != want[i] {
			t.Errorf("after a panicked run: run %d differs:\n got  %s\n want %s", i, got, want[i])
		}
	}
}
