// Package exec runs a task graph's real kernels on a work-stealing pool
// of goroutines, respecting the graph's dependences. The simulation
// substrate (package sim) owns all *timing*; this pool owns *correctness*:
// examples and tests execute the actual numerical kernels here and verify
// results, demonstrating that the dependence inference admits exactly the
// parallelism a real task runtime would exploit.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/task"
)

// Pool executes task graphs on a fixed set of worker goroutines with
// per-worker deques and work stealing.
type Pool struct {
	workers int
}

// NewPool returns a pool configuration with the given worker count.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// deque is a mutex-guarded work-stealing deque: the owner pushes and pops
// at the bottom (LIFO), thieves steal from the top (FIFO).
type deque struct {
	mu sync.Mutex
	q  []*task.Task
}

func (d *deque) push(t *task.Task) {
	d.mu.Lock()
	d.q = append(d.q, t)
	d.mu.Unlock()
}

func (d *deque) popBottom() (*task.Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.q)
	if n == 0 {
		return nil, false
	}
	t := d.q[n-1]
	d.q = d.q[:n-1]
	return t, true
}

func (d *deque) stealTop() (*task.Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.q) == 0 {
		return nil, false
	}
	t := d.q[0]
	d.q = d.q[1:]
	return t, true
}

// Run executes every task in the graph, calling each task's Run function
// (nil Runs are treated as no-ops), honoring all dependences. It returns
// an error if the graph fails validation or if execution deadlocks
// (which would indicate a dependence-graph bug).
func (p *Pool) Run(g *task.Graph) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	n := len(g.Tasks)
	if n == 0 {
		return nil
	}

	remaining := make([]int, n) // unmet dependence counts
	for _, t := range g.Tasks {
		remaining[t.ID] = len(t.Deps())
	}

	deques := make([]deque, p.workers)

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		completed int
		version   int // bumped on every completion; defeats lost wakeups
	)

	// Seed roots round-robin across the deques.
	rr := 0
	for _, t := range g.Tasks {
		if remaining[t.ID] == 0 {
			deques[rr%p.workers].push(t)
			rr++
		}
	}

	finish := func(worker int, t *task.Task) {
		// Release successors; new ready tasks land on this worker's deque.
		mu.Lock()
		for _, s := range t.Succs() {
			remaining[s]--
			if remaining[s] == 0 {
				deques[worker].push(g.Task(s))
			}
		}
		completed++
		version++
		mu.Unlock()
		cond.Broadcast()
	}

	worker := func(id int) {
		for {
			mu.Lock()
			v := version
			done := completed == n
			mu.Unlock()
			if done {
				return
			}

			// Own deque first, then steal in a fixed victim order.
			t, ok := deques[id].popBottom()
			if !ok {
				for i := 1; i < p.workers && !ok; i++ {
					t, ok = deques[(id+i)%p.workers].stealTop()
				}
			}
			if ok {
				if t.Run != nil {
					t.Run()
				}
				finish(id, t)
				continue
			}

			// Found nothing: sleep unless the world changed mid-scan
			// (the version check closes the lost-wakeup window between
			// scanning the deques and going to sleep).
			mu.Lock()
			for version == v && completed != n {
				cond.Wait()
			}
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < p.workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(id)
		}(i)
	}
	wg.Wait()

	if completed != n {
		return fmt.Errorf("exec: completed %d of %d tasks", completed, n)
	}
	return nil
}
