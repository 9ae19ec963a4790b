package task

import (
	"fmt"
	"slices"
)

// Builder constructs a Graph from a sequential stream of object
// declarations and task submissions, inferring dependences from access
// modes the way task-parallel runtimes do:
//
//   - a reader depends on the object's last writer (read-after-write);
//   - a writer depends on the object's last writer (write-after-write)
//     and on every reader since (write-after-read).
//
// Transitively implied edges are still recorded only once per pair.
type Builder struct {
	g *Graph

	// Per-object dependence state, indexed by ObjectID and grown in
	// ObjectOpt: the last writer (-1 = none) and the readers since it.
	lastWriter   []TaskID
	readersSince [][]TaskID

	// deps gathers one Submit's dependences before they are sorted,
	// de-duplicated and copied into the task.
	deps []TaskID
	// nDeps counts every task's dependences, sizing Build's successor
	// backing array.
	nDeps int
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Graph{Name: name}}
}

// Object declares a data object and returns its ID.
func (b *Builder) Object(name string, size int64) ObjectID {
	return b.ObjectOpt(name, size, true)
}

// ObjectOpt declares a data object with explicit chunkability.
func (b *Builder) ObjectOpt(name string, size int64, chunkable bool) ObjectID {
	id := ObjectID(len(b.g.Objects))
	b.g.Objects = append(b.g.Objects, &Object{ID: id, Name: name, Size: size, Chunkable: chunkable})
	b.lastWriter = append(b.lastWriter, -1)
	b.readersSince = append(b.readersSince, nil)
	return id
}

// Submit appends a task, infers its dependences, and returns its ID.
// The Accesses slice is retained; callers must not reuse it.
func (b *Builder) Submit(kind string, cpuSec float64, accesses []Access, run func()) TaskID {
	id := TaskID(len(b.g.Tasks))
	t := &Task{ID: id, Kind: kind, CPUSec: cpuSec, Accesses: accesses, Run: run}

	deps := b.deps[:0]
	for _, a := range t.Accesses {
		if int(a.Obj) < 0 || int(a.Obj) >= len(b.g.Objects) {
			panic(fmt.Sprintf("task: submit %q touches undeclared object %d", kind, a.Obj))
		}
		reads := a.Mode == In || a.Mode == InOut
		writes := a.Mode == Out || a.Mode == InOut
		if w := b.lastWriter[a.Obj]; w >= 0 && (reads || writes) {
			deps = append(deps, w)
		}
		if writes {
			deps = append(deps, b.readersSince[a.Obj]...)
		}
	}
	if len(deps) > 0 {
		slices.Sort(deps)
		t.deps = slices.Clone(slices.Compact(deps))
		b.nDeps += len(t.deps)
	}
	b.deps = deps
	b.g.Tasks = append(b.g.Tasks, t)

	// Update per-object dependence state.
	for _, a := range t.Accesses {
		switch a.Mode {
		case In:
			b.readersSince[a.Obj] = append(b.readersSince[a.Obj], id)
		case Out, InOut:
			b.lastWriter[a.Obj] = id
			b.readersSince[a.Obj] = b.readersSince[a.Obj][:0]
		}
	}
	return id
}

// Build finalizes and returns the graph: it derives the successor lists,
// the per-object user lists, the level table and the kind table. The
// Builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	g := b.g
	b.g = nil
	g.kindNames, g.kindOf = buildKindTable(g.Tasks)
	buildSuccs(g.Tasks, b.nDeps)
	g.usersOf = buildUsers(g.Tasks, len(g.Objects))
	g.levels = computeLevels(g.Tasks)
	return g
}

// buildSuccs carves every task's successor list from one backing array
// of nDeps entries. Tasks are visited in ID order, so each list comes
// out ascending.
func buildSuccs(tasks []*Task, nDeps int) {
	if nDeps == 0 {
		return
	}
	count := make([]int32, len(tasks))
	for _, t := range tasks {
		for _, d := range t.deps {
			count[d]++
		}
	}
	flat := make([]TaskID, nDeps)
	for i, t := range tasks {
		if n := count[i]; n > 0 {
			t.succs, flat = flat[:0:n], flat[n:]
		}
	}
	for _, t := range tasks {
		for _, d := range t.deps {
			tasks[d].succs = append(tasks[d].succs, t.ID)
		}
	}
}

// buildUsers carves every object's user list, in submission order, from
// one backing array with a slot per access. A task naming an object more
// than once is listed once, so such an object's list keeps spare slots.
func buildUsers(tasks []*Task, nObj int) [][]TaskID {
	count := make([]int32, nObj)
	total := 0
	for _, t := range tasks {
		for _, a := range t.Accesses {
			count[a.Obj]++
		}
		total += len(t.Accesses)
	}
	flat := make([]TaskID, total)
	usersOf := make([][]TaskID, nObj)
	for obj, n := range count {
		if n > 0 {
			usersOf[obj], flat = flat[:0:n], flat[n:]
		}
	}
	for _, t := range tasks {
		for _, a := range t.Accesses {
			// A repeat of this task's object was the last user recorded.
			if u := usersOf[a.Obj]; len(u) == 0 || u[len(u)-1] != t.ID {
				usersOf[a.Obj] = append(u, t.ID)
			}
		}
	}
	return usersOf
}

// computeLevels assigns each task its topological level. Submission
// order is a topological order: a task can only depend on previously
// submitted tasks.
func computeLevels(tasks []*Task) []int {
	levels := make([]int, len(tasks))
	for _, t := range tasks {
		lv := 0
		for _, d := range t.deps {
			if levels[d]+1 > lv {
				lv = levels[d] + 1
			}
		}
		levels[t.ID] = lv
	}
	return levels
}
