// Package sched provides the ready-task ordering policies of the
// simulated task runtime: FIFO, LIFO, priority (e.g. HEFT-style upward
// rank), and per-worker work-stealing deques. The data-placement runtime
// is scheduler-agnostic; the scheduler ablation experiment (E11) swaps
// these policies to show how placement interacts with dispatch order.
package sched

import (
	"container/heap"
	"slices"
	"unsafe"

	"repro/internal/task"
)

// Queue orders ready tasks for dispatch. Implementations are not safe for
// concurrent use; the discrete-event runtime is single-threaded.
type Queue interface {
	// Push makes a task ready. worker is the worker on which the task
	// became ready (the one that completed its last dependence), or -1
	// for initial roots.
	Push(t *task.Task, worker int)
	// Pop returns the next task for the given worker.
	Pop(worker int) (*task.Task, bool)
	// Len returns the number of queued tasks.
	Len() int
}

// FIFO dispatches tasks in ready order — the baseline breadth-first
// behaviour of a centralized queue.
type FIFO struct {
	q []*task.Task
}

// NewFIFO returns an empty FIFO queue.
func NewFIFO() *FIFO { return &FIFO{} }

// Push appends the task.
func (f *FIFO) Push(t *task.Task, worker int) { f.q = append(f.q, t) }

// Pop removes the oldest ready task.
func (f *FIFO) Pop(worker int) (*task.Task, bool) {
	if len(f.q) == 0 {
		return nil, false
	}
	t := f.q[0]
	f.q = f.q[1:]
	return t, true
}

// Len returns the queue length.
func (f *FIFO) Len() int { return len(f.q) }

// LIFO dispatches the most recently readied task first — depth-first
// behaviour that keeps working sets hot.
type LIFO struct {
	q []*task.Task
}

// NewLIFO returns an empty LIFO queue.
func NewLIFO() *LIFO { return &LIFO{} }

// Push appends the task.
func (l *LIFO) Push(t *task.Task, worker int) { l.q = append(l.q, t) }

// Pop removes the newest ready task.
func (l *LIFO) Pop(worker int) (*task.Task, bool) {
	if len(l.q) == 0 {
		return nil, false
	}
	t := l.q[len(l.q)-1]
	l.q = l.q[:len(l.q)-1]
	return t, true
}

// Len returns the queue length.
func (l *LIFO) Len() int { return len(l.q) }

// Priority dispatches by a score, largest first; ties break by task ID
// (submission order) for determinism.
type Priority struct {
	score func(*task.Task) float64
	h     prioHeap
}

// NewPriority returns a priority queue ordered by score, descending.
func NewPriority(score func(*task.Task) float64) *Priority {
	return &Priority{score: score}
}

type prioItem struct {
	t     *task.Task
	score float64
}

type prioHeap []prioItem

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].t.ID < h[j].t.ID
}
func (h prioHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x any)   { *h = append(*h, x.(prioItem)) }
func (h *prioHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Push inserts the task with its score.
func (p *Priority) Push(t *task.Task, worker int) {
	heap.Push(&p.h, prioItem{t: t, score: p.score(t)})
}

// Pop removes the highest-scored task.
func (p *Priority) Pop(worker int) (*task.Task, bool) {
	if p.h.Len() == 0 {
		return nil, false
	}
	return heap.Pop(&p.h).(prioItem).t, true
}

// Len returns the queue length.
func (p *Priority) Len() int { return p.h.Len() }

// WorkSteal gives each worker a deque: Push lands on the readying
// worker's deque (roots round-robin), Pop takes the own deque's newest
// task (depth-first locally) and steals the oldest task from the first
// non-empty victim otherwise (breadth-first remotely) — the classic
// work-stealing discipline, deterministic for the simulation.
type WorkSteal struct {
	deques []deque
	rr     int
	n      int
}

// deque holds a worker's ready tasks in tasks[head:]. A steal advances
// head rather than re-slicing the front away, and an emptied deque
// rewinds to the start of its array, so deques keep their capacity and
// a run's steady state pushes without allocating. A pop clears the slot
// it takes, so an empty deque holds no task.
type deque struct {
	tasks []*task.Task
	head  int
}

// rewindIfEmpty restarts an emptied deque at the start of its array.
func (d *deque) rewindIfEmpty() {
	if d.head == len(d.tasks) {
		d.tasks, d.head = d.tasks[:0], 0
	}
}

// Reset empties w into one deque per worker (at least one) and returns
// it: a reset WorkSteal behaves exactly as a new one, and keeps each
// deque's array, so one reused across runs stops allocating once its
// deques have grown.
func (w *WorkSteal) Reset(workers int) *WorkSteal {
	if workers < 1 {
		workers = 1
	}
	all := w.deques[:cap(w.deques)]
	for i := range all {
		clear(all[i].tasks)
		all[i].tasks, all[i].head = all[i].tasks[:0], 0
	}
	if workers > len(all) {
		all = slices.Grow(all, workers-len(all))
	}
	w.deques = all[:workers]
	w.rr, w.n = 0, 0
	return w
}

// Footprint returns the bytes w's deques hold.
func (w *WorkSteal) Footprint() int {
	n := cap(w.deques) * int(unsafe.Sizeof(deque{}))
	for _, d := range w.deques[:cap(w.deques)] {
		n += 8 * cap(d.tasks)
	}
	return n
}

// Push appends to the readying worker's deque.
func (w *WorkSteal) Push(t *task.Task, worker int) {
	if worker < 0 || worker >= len(w.deques) {
		worker = w.rr % len(w.deques)
		w.rr++
	}
	d := &w.deques[worker]
	d.tasks = append(d.tasks, t)
	w.n++
}

// Pop takes from the worker's own deque bottom, else steals a victim's top.
func (w *WorkSteal) Pop(worker int) (*task.Task, bool) {
	if worker < 0 || worker >= len(w.deques) {
		worker = 0
	}
	if d := &w.deques[worker]; len(d.tasks) > d.head {
		last := len(d.tasks) - 1
		t := d.tasks[last]
		d.tasks[last] = nil
		d.tasks = d.tasks[:last]
		d.rewindIfEmpty()
		w.n--
		return t, true
	}
	for i := 1; i <= len(w.deques); i++ {
		if d := &w.deques[(worker+i)%len(w.deques)]; len(d.tasks) > d.head {
			t := d.tasks[d.head]
			d.tasks[d.head] = nil
			d.head++
			d.rewindIfEmpty()
			w.n--
			return t, true
		}
	}
	return nil, false
}

// Len returns the total queued tasks across deques.
func (w *WorkSteal) Len() int { return w.n }

// UpwardRank computes each task's HEFT-style upward rank: its estimated
// time plus the maximum rank among its successors. Dispatching by
// descending rank keeps the critical path moving.
func UpwardRank(g *task.Graph, est func(*task.Task) float64) []float64 {
	rank := make([]float64, len(g.Tasks))
	for i := len(g.Tasks) - 1; i >= 0; i-- {
		t := g.Tasks[i]
		var best float64
		for _, s := range t.Succs() {
			if rank[s] > best {
				best = rank[s]
			}
		}
		rank[i] = est(t) + best
	}
	return rank
}
