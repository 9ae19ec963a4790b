package task

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Graph is an immutable task DAG plus its data objects. Build one with a
// Builder; the zero value is empty but valid. A graph lives in its
// Builder's storage, so it is valid until that Builder's next Reset.
type Graph struct {
	Name    string
	Objects []*Object
	Tasks   []*Task

	// usersOf[obj] lists, in submission order, the IDs of tasks touching
	// the object. Submission order is the sequential-elision order, so for
	// any task t, the users before t in this list are exactly the tasks
	// that dependence-safety requires to finish before the object may be
	// migrated for t.
	usersOf [][]TaskID

	// levels[t] is task t's topological level, computed by Build.
	levels []int

	// Kind table, precomputed by Build: kinds in first-appearance order
	// and each task's index into it. Gives planners a deterministic
	// iteration order over kinds (string-keyed maps do not) and dense
	// per-kind arrays instead of map lookups.
	kindNames []string
	kindOf    []int32

	// validated latches a successful Validate. The graph is immutable
	// once built, so the structural checks cannot change answer, and
	// every run re-validates its input graph.
	validated atomic.Bool
}

// buildKindTable derives the kind table from a task list into the
// arrays of names and of, which it reuses, and into index, which it
// clears first.
func buildKindTable(tasks []*Task, names []string, of []int32, index map[string]int32) ([]string, []int32) {
	clear(index)
	names = names[:0]
	of = resize(of, len(tasks))
	for i, t := range tasks {
		k, ok := index[t.Kind]
		if !ok {
			k = int32(len(names))
			index[t.Kind] = k
			names = append(names, t.Kind)
		}
		of[i] = k
	}
	return names, of
}

// Kinds returns the distinct task kinds in first-appearance order.
func (g *Graph) Kinds() []string {
	if g.kindNames == nil && len(g.Tasks) > 0 {
		names, _ := buildKindTable(g.Tasks, nil, nil, map[string]int32{}) // graph built without Builder
		return names
	}
	return g.kindNames
}

// KindIndex returns task id's index into Kinds().
func (g *Graph) KindIndex(id TaskID) int {
	if g.kindOf == nil && len(g.Tasks) > 0 {
		_, of := buildKindTable(g.Tasks, nil, nil, map[string]int32{})
		return int(of[id])
	}
	return int(g.kindOf[id])
}

// Object returns the object with the given ID.
func (g *Graph) Object(id ObjectID) *Object { return g.Objects[id] }

// Task returns the task with the given ID.
func (g *Graph) Task(id TaskID) *Task { return g.Tasks[id] }

// Users returns, in submission order, the tasks that touch obj; nil for
// an object outside the graph's user lists.
func (g *Graph) Users(obj ObjectID) []TaskID {
	if obj < 0 || int(obj) >= len(g.usersOf) {
		return nil
	}
	return g.usersOf[obj]
}

// PrevUser returns the last task before t (in submission order) that
// touches obj, and whether one exists. Its completion is the earliest
// dependence-safe point at which obj may be migrated for task t.
func (g *Graph) PrevUser(obj ObjectID, t TaskID) (TaskID, bool) {
	users := g.Users(obj)
	// The first user >= t, then step back.
	i, _ := slices.BinarySearch(users, t)
	if i == 0 {
		return 0, false
	}
	return users[i-1], true
}

// NextUser returns the first task after t (in submission order) that
// touches obj, and whether one exists.
func (g *Graph) NextUser(obj ObjectID, t TaskID) (TaskID, bool) {
	users := g.Users(obj)
	i, found := slices.BinarySearch(users, t)
	if found {
		i++
	}
	if i == len(users) {
		return 0, false
	}
	return users[i], true
}

// Roots returns the tasks with no dependences.
func (g *Graph) Roots() []TaskID {
	var roots []TaskID
	for _, t := range g.Tasks {
		if len(t.deps) == 0 {
			roots = append(roots, t.ID)
		}
	}
	return roots
}

// Levels returns each task's topological level: roots are level 0, and
// every other task is one past its deepest predecessor. Tasks on the same
// level never depend on one another, so levels are the task-graph analog
// of the MPI paper's "phases" and are what the phase-based baseline plans
// over. The slice is computed once by Build and shared by every caller,
// across goroutines too: it is read-only.
func (g *Graph) Levels() []int {
	if g.levels == nil && len(g.Tasks) > 0 {
		return fillLevels(g.Tasks, make([]int, len(g.Tasks))) // graph built without Builder
	}
	return g.levels
}

// CriticalPath returns the length of the longest dependence chain through
// the graph, weighing each task with est (e.g. a modeled execution time),
// plus the IDs on one such chain.
func (g *Graph) CriticalPath(est func(*Task) float64) (float64, []TaskID) {
	n := len(g.Tasks)
	if n == 0 {
		return 0, nil
	}
	dist := make([]float64, n)
	from := make([]TaskID, n)
	for i := range from {
		from[i] = -1
	}
	best, bestEnd := 0.0, TaskID(0)
	for _, t := range g.Tasks {
		d := 0.0
		f := TaskID(-1)
		for _, dep := range t.deps {
			if dist[dep] > d {
				d, f = dist[dep], dep
			}
		}
		dist[t.ID] = d + est(t)
		from[t.ID] = f
		if dist[t.ID] > best {
			best, bestEnd = dist[t.ID], t.ID
		}
	}
	var path []TaskID
	for id := bestEnd; id >= 0; id = from[id] {
		path = append(path, id)
	}
	// Reverse into root-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return best, path
}

// TotalWork sums est over all tasks — the serial execution time under the
// same estimator used for CriticalPath; their ratio bounds speedup.
func (g *Graph) TotalWork(est func(*Task) float64) float64 {
	total := 0.0
	for _, t := range g.Tasks {
		total += est(t)
	}
	return total
}

// ObjectTraffic aggregates the whole graph's loads and stores per object,
// indexed by ObjectID — the oracle profile an offline-profiling baseline
// (X-Mem) plans with. An object no task touches has a zero entry.
func (g *Graph) ObjectTraffic() []Access {
	agg := make([]Access, len(g.Objects))
	for _, t := range g.Tasks {
		for _, a := range t.Accesses {
			cur := &agg[a.Obj]
			cur.Obj = a.Obj
			cur.Loads += a.Loads
			cur.Stores += a.Stores
			// Traffic-weighted MLP mean keeps the aggregate pattern honest
			// when the same object is streamed by one kind and chased by
			// another.
			w := float64(a.Loads + a.Stores)
			cw := float64(cur.Loads + cur.Stores - a.Loads - a.Stores)
			if w+cw > 0 {
				cur.MLP = (cur.MLP*cw + a.MLP*w) / (cw + w)
			}
		}
	}
	return agg
}

// Validate checks structural invariants: dense IDs, in-range references,
// dependence edges pointing backwards in submission order, strictly
// ascending dep/succ lists that are symmetric, and strictly ordered user
// lists. Workload generators are tested against it.
func (g *Graph) Validate() error {
	if g.validated.Load() {
		return nil
	}
	for i, o := range g.Objects {
		if o.ID != ObjectID(i) {
			return fmt.Errorf("task: object %d has ID %d", i, o.ID)
		}
		if o.Size <= 0 {
			return fmt.Errorf("task: object %q has size %d", o.Name, o.Size)
		}
	}
	for i, t := range g.Tasks {
		if t.ID != TaskID(i) {
			return fmt.Errorf("task: task %d has ID %d", i, t.ID)
		}
		if t.CPUSec < 0 {
			return fmt.Errorf("task %d: negative CPU time", t.ID)
		}
		for _, a := range t.Accesses {
			if int(a.Obj) < 0 || int(a.Obj) >= len(g.Objects) {
				return fmt.Errorf("task %d: access to unknown object %d", t.ID, a.Obj)
			}
			if a.Loads < 0 || a.Stores < 0 {
				return fmt.Errorf("task %d: negative access counts", t.ID)
			}
			if a.MLP < 1 {
				return fmt.Errorf("task %d: MLP %g < 1", t.ID, a.MLP)
			}
		}
		for j, d := range t.deps {
			if d >= t.ID || d < 0 {
				return fmt.Errorf("task %d: dependence on %d violates submission order", t.ID, d)
			}
			if j > 0 && d <= t.deps[j-1] {
				return fmt.Errorf("task %d: dependence on %d out of order", t.ID, d)
			}
		}
		for j, s := range t.succs {
			if s <= t.ID || int(s) >= len(g.Tasks) || (j > 0 && s <= t.succs[j-1]) {
				return fmt.Errorf("task %d: successor %d out of order", t.ID, s)
			}
		}
	}
	for _, t := range g.Tasks {
		for _, d := range t.deps {
			if _, ok := slices.BinarySearch(g.Tasks[d].succs, t.ID); !ok {
				return fmt.Errorf("task %d: dep %d lacks matching successor edge", t.ID, d)
			}
		}
	}
	for obj, users := range g.usersOf {
		for i := 1; i < len(users); i++ {
			if users[i] <= users[i-1] {
				return fmt.Errorf("object %d: user list not strictly ordered", obj)
			}
		}
	}
	g.validated.Store(true)
	return nil
}
