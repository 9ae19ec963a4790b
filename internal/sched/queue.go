// Package sched provides the ready-task ordering policies of the
// simulated task runtime: FIFO, LIFO, priority (e.g. HEFT-style upward
// rank), and per-worker work-stealing deques. The data-placement runtime
// is scheduler-agnostic; the scheduler ablation experiment (E11) swaps
// these policies to show how placement interacts with dispatch order.
package sched

import (
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
// behaviour of a centralized queue. It holds its tasks in q[head:]: a
// pop advances head and clears the slot it takes, an emptied queue
// rewinds to the start of its array, and a push into a full array whose
// front half is popped moves the tasks down instead of growing it. So a
// FIFO keeps its capacity and one reused across runs stops allocating.
type FIFO struct {
	q    []*task.Task
	head int
}

// NewFIFO returns an empty FIFO queue.
func NewFIFO() *FIFO { return &FIFO{} }

// Reset empties f, keeping its array, and returns it.
func (f *FIFO) Reset() *FIFO {
	clear(f.q)
	f.q, f.head = f.q[:0], 0
	return f
}

// Push appends the task.
func (f *FIFO) Push(t *task.Task, worker int) {
	if len(f.q) == cap(f.q) && f.head > 0 && f.head >= len(f.q)/2 {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, t)
}

// Pop removes the oldest ready task.
func (f *FIFO) Pop(worker int) (*task.Task, bool) {
	if f.head == len(f.q) {
		return nil, false
	}
	t := f.q[f.head]
	f.q[f.head] = nil
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return t, true
}

// Len returns the queue length.
func (f *FIFO) Len() int { return len(f.q) - f.head }

// Footprint returns the bytes f's array holds.
func (f *FIFO) Footprint() int { return 8 * cap(f.q) }

// LIFO dispatches the most recently readied task first — depth-first
// behaviour that keeps working sets hot.
type LIFO struct {
	q []*task.Task
}

// NewLIFO returns an empty LIFO queue.
func NewLIFO() *LIFO { return &LIFO{} }

// Reset empties l, keeping its array, and returns it.
func (l *LIFO) Reset() *LIFO {
	clear(l.q)
	l.q = l.q[:0]
	return l
}

// Push appends the task.
func (l *LIFO) Push(t *task.Task, worker int) { l.q = append(l.q, t) }

// Pop removes the newest ready task.
func (l *LIFO) Pop(worker int) (*task.Task, bool) {
	n := len(l.q) - 1
	if n < 0 {
		return nil, false
	}
	t := l.q[n]
	l.q[n] = nil
	l.q = l.q[:n]
	return t, true
}

// Len returns the queue length.
func (l *LIFO) Len() int { return len(l.q) }

// Footprint returns the bytes l's array holds.
func (l *LIFO) Footprint() int { return 8 * cap(l.q) }

// Priority dispatches by a score, largest first; ties break by task ID
// (submission order) for determinism. That order is total over distinct
// tasks, so the pop sequence does not depend on the heap's shape.
type Priority struct {
	score func(*task.Task) float64
	h     []prioItem // a binary heap, best first
}

// NewPriority returns a priority queue ordered by score, descending.
func NewPriority(score func(*task.Task) float64) *Priority {
	return &Priority{score: score}
}

// Reset empties p, keeping its heap array, orders it by score and
// returns it.
func (p *Priority) Reset(score func(*task.Task) float64) *Priority {
	clear(p.h)
	p.h, p.score = p.h[:0], score
	return p
}

type prioItem struct {
	t     *task.Task
	score float64
}

// before reports whether a pops ahead of b.
func (a prioItem) before(b prioItem) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.t.ID < b.t.ID
}

// Push inserts the task with its score.
func (p *Priority) Push(t *task.Task, worker int) {
	p.h = append(p.h, prioItem{t: t, score: p.score(t)})
	h := p.h
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

// Pop removes the highest-scored task.
func (p *Priority) Pop(worker int) (*task.Task, bool) {
	n := len(p.h) - 1
	if n < 0 {
		return nil, false
	}
	h := p.h
	t := h[0].t
	h[0], h[n] = h[n], prioItem{}
	h = h[:n]
	for i := 0; ; {
		best := i
		if c := 2*i + 1; c < n && h[c].before(h[best]) {
			best = c
		}
		if c := 2*i + 2; c < n && h[c].before(h[best]) {
			best = c
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	p.h = h
	return t, true
}

// Len returns the queue length.
func (p *Priority) Len() int { return len(p.h) }

// Footprint returns the bytes p's heap array holds.
func (p *Priority) Footprint() int { return cap(p.h) * int(unsafe.Sizeof(prioItem{})) }

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
// descending rank keeps the critical path moving. The ranks fill rank's
// array when it is large enough.
func UpwardRank(rank []float64, g *task.Graph, est func(*task.Task) float64) []float64 {
	rank = slices.Grow(rank[:0], len(g.Tasks))[:len(g.Tasks)]
	clear(rank)
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
