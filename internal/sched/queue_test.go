package sched

import (
	"math/rand"
	"testing"

	"repro/internal/task"
)

func mk(n int) []*task.Task {
	ts := make([]*task.Task, n)
	for i := range ts {
		ts[i] = &task.Task{ID: task.TaskID(i), Kind: "k"}
	}
	return ts
}

func drain(q Queue, worker int) []task.TaskID {
	var ids []task.TaskID
	for {
		t, ok := q.Pop(worker)
		if !ok {
			return ids
		}
		ids = append(ids, t.ID)
	}
}

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO()
	for _, tk := range mk(4) {
		q.Push(tk, 0)
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d", q.Len())
	}
	got := drain(q, 0)
	for i, id := range got {
		if id != task.TaskID(i) {
			t.Fatalf("FIFO order = %v", got)
		}
	}
	if _, ok := q.Pop(0); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestFIFOInterleaved: random runs of pushes and pops, crossing the
// rewind of an emptied queue and the move-down of a half-popped full
// array, keep ready order, and a Reset queue starts empty.
func TestFIFOInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ts := mk(64)
	q := NewFIFO()
	for round := 0; round < 50; round++ {
		var want []task.TaskID
		for op := 0; op < 400; op++ {
			if rng.Intn(5) < 3 {
				tk := ts[rng.Intn(len(ts))]
				q.Push(tk, 0)
				want = append(want, tk.ID)
			} else if tk, ok := q.Pop(0); ok != (len(want) > 0) || ok && tk.ID != want[0] {
				t.Fatalf("round %d op %d: pop = %v, %v; want the head of %v", round, op, tk, ok, want)
			} else if ok {
				want = want[1:]
			}
			if q.Len() != len(want) {
				t.Fatalf("round %d op %d: len = %d, want %d", round, op, q.Len(), len(want))
			}
		}
		if q.Reset(); q.Len() != 0 {
			t.Fatalf("len = %d after Reset", q.Len())
		}
	}
}

func TestLIFOOrder(t *testing.T) {
	q := NewLIFO()
	for _, tk := range mk(4) {
		q.Push(tk, 0)
	}
	got := drain(q, 0)
	for i, id := range got {
		if id != task.TaskID(3-i) {
			t.Fatalf("LIFO order = %v", got)
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	scores := map[task.TaskID]float64{0: 1, 1: 9, 2: 5, 3: 9}
	q := NewPriority(func(tk *task.Task) float64 { return scores[tk.ID] })
	for _, tk := range mk(4) {
		q.Push(tk, 0)
	}
	got := drain(q, 0)
	// Score desc, ties by ID asc: 1, 3, 2, 0.
	want := []task.TaskID{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", got, want)
		}
	}
}

// TestPriorityInterleaved checks the heap against a linear scan: under
// random pushes and pops, with scores drawn from a few values so that
// ties break by ID, every pop returns the best queued task.
func TestPriorityInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ts := mk(200)
	scores := make([]float64, len(ts))
	before := func(a, b *task.Task) bool {
		return scores[a.ID] > scores[b.ID] || scores[a.ID] == scores[b.ID] && a.ID < b.ID
	}
	q := NewPriority(nil)
	for round := 0; round < 20; round++ {
		for i := range scores {
			scores[i] = float64(rng.Intn(6))
		}
		q.Reset(func(tk *task.Task) float64 { return scores[tk.ID] })
		var queued []*task.Task
		for op := 0; op < 600; op++ {
			if rng.Intn(2) == 0 {
				tk := ts[rng.Intn(len(ts))]
				q.Push(tk, 0)
				queued = append(queued, tk)
				continue
			}
			best := -1
			for i, tk := range queued {
				if best < 0 || before(tk, queued[best]) {
					best = i
				}
			}
			tk, ok := q.Pop(0)
			if ok != (best >= 0) || ok && tk != queued[best] {
				t.Fatalf("round %d op %d: pop = %v, %v", round, op, tk, ok)
			}
			if ok {
				queued = append(queued[:best], queued[best+1:]...)
			}
			if q.Len() != len(queued) {
				t.Fatalf("round %d op %d: len = %d, want %d", round, op, q.Len(), len(queued))
			}
		}
	}
}

func TestWorkStealOwnDequeLIFO(t *testing.T) {
	q := new(WorkSteal).Reset(2)
	ts := mk(3)
	for _, tk := range ts {
		q.Push(tk, 0)
	}
	// Owner pops its own deque newest-first.
	if tk, _ := q.Pop(0); tk.ID != 2 {
		t.Fatalf("own pop = %d, want 2", tk.ID)
	}
	// A thief steals oldest-first.
	if tk, _ := q.Pop(1); tk.ID != 0 {
		t.Fatalf("steal = %d, want 0", tk.ID)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestWorkStealRoundRobinRoots(t *testing.T) {
	q := new(WorkSteal).Reset(2)
	ts := mk(4)
	for _, tk := range ts {
		q.Push(tk, -1) // roots
	}
	// Roots alternate deques: worker 0 holds {0, 2}, worker 1 holds {1, 3}.
	if tk, _ := q.Pop(0); tk.ID != 2 {
		t.Fatalf("worker 0 pop = %d, want 2", tk.ID)
	}
	if tk, _ := q.Pop(1); tk.ID != 3 {
		t.Fatalf("worker 1 pop = %d, want 3", tk.ID)
	}
}

func TestWorkStealEmpty(t *testing.T) {
	q := new(WorkSteal).Reset(3)
	if _, ok := q.Pop(0); ok {
		t.Fatal("pop from empty deques succeeded")
	}
	// Out-of-range workers clamp rather than panic.
	q.Push(mk(1)[0], 99)
	if tk, ok := q.Pop(-5); !ok || tk.ID != 0 {
		t.Fatal("out-of-range worker handling broken")
	}
}

// sliceSteal is the re-slicing work-stealing queue WorkSteal replaced: a
// steal drops the victim's front with d[1:].
type sliceSteal struct {
	deques [][]*task.Task
	rr     int
}

func (w *sliceSteal) Push(t *task.Task, worker int) {
	if worker < 0 || worker >= len(w.deques) {
		worker = w.rr % len(w.deques)
		w.rr++
	}
	w.deques[worker] = append(w.deques[worker], t)
}

func (w *sliceSteal) Pop(worker int) (*task.Task, bool) {
	if worker < 0 || worker >= len(w.deques) {
		worker = 0
	}
	if d := w.deques[worker]; len(d) > 0 {
		w.deques[worker] = d[:len(d)-1]
		return d[len(d)-1], true
	}
	for i := 1; i <= len(w.deques); i++ {
		v := (worker + i) % len(w.deques)
		if d := w.deques[v]; len(d) > 0 {
			w.deques[v] = d[1:]
			return d[0], true
		}
	}
	return nil, false
}

// TestWorkStealMatchesSliceDeques drives WorkSteal and the re-slicing
// queue through the same random push and pop sequences: the head index
// must pop exactly the same tasks in the same order. One WorkSteal serves
// every seed, Reset to the seed's worker count while the last seed's
// tasks are still queued, so each sequence also checks that a reset
// WorkSteal behaves as a new one.
func TestWorkStealMatchesSliceDeques(t *testing.T) {
	ts := mk(4096)
	q := new(WorkSteal)
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(6)
		q.Reset(workers)
		ref := &sliceSteal{deques: make([][]*task.Task, workers)}
		next, queued := 0, 0
		for step := 0; step < 2000; step++ {
			w := rng.Intn(workers+1) - 1 // -1 is a root push
			if next < len(ts) && (queued == 0 || rng.Intn(2) == 0) {
				q.Push(ts[next], w)
				ref.Push(ts[next], w)
				next++
				queued++
				continue
			}
			got, ok := q.Pop(w)
			want, wok := ref.Pop(w)
			if ok != wok || got != want {
				t.Fatalf("seed %d step %d: Pop(%d) = %v %v, want %v %v", seed, step, w, got, ok, want, wok)
			}
			if ok {
				queued--
			}
			if q.Len() != queued {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), queued)
			}
		}
	}
}

// TestWorkStealSteadyStateAllocs checks that deques keep their capacity
// across steals: once warm, pushing and draining by steals and own pops
// allocates nothing.
func TestWorkStealSteadyStateAllocs(t *testing.T) {
	q := new(WorkSteal).Reset(2)
	ts := mk(64)
	cycle := func() {
		for _, tk := range ts {
			q.Push(tk, 0)
		}
		for i := 0; i < len(ts)/2; i++ {
			q.Pop(1) // steals from worker 0's top
		}
		for q.Len() > 0 {
			q.Pop(0)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("%v allocs per push/steal/pop cycle, want 0", n)
	}
}

func TestUpwardRank(t *testing.T) {
	b := task.NewBuilder("chain")
	a := b.Object("A", 64)
	c := b.Object("B", 64)
	b.Submit("t0", 3, []task.Access{{Obj: a, Mode: task.Out, Stores: 1, MLP: 1}}, nil)
	b.Submit("t1", 2, []task.Access{{Obj: a, Mode: task.In, Loads: 1, MLP: 1}, {Obj: c, Mode: task.Out, Stores: 1, MLP: 1}}, nil)
	b.Submit("t2", 1, []task.Access{{Obj: c, Mode: task.In, Loads: 1, MLP: 1}}, nil)
	g := b.Build()
	rank := UpwardRank(nil, g, func(tk *task.Task) float64 { return tk.CPUSec })
	// Upward ranks along the chain: 6, 3, 1.
	if rank[0] != 6 || rank[1] != 3 || rank[2] != 1 {
		t.Fatalf("ranks = %v", rank)
	}
	// Dispatching by rank puts earlier chain tasks first.
	if !(rank[0] > rank[1] && rank[1] > rank[2]) {
		t.Fatal("rank ordering violated")
	}
}
