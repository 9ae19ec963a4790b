package task

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"
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
//
// A Builder is reusable. Reset starts the next graph in the storage of
// the last one: it keeps every *Task and *Object the Builder handed out,
// with each task's access and dependence arrays, and every table Build
// derives. A graph built by a Builder is therefore valid only until that
// Builder's next Reset. The zero Builder is ready once Reset names its
// graph; NewBuilder does both.
type Builder struct {
	name string
	// The graph's objects and tasks. Slots past len hold the ones an
	// earlier graph used, which the next declarations fill again.
	objects []*Object
	tasks   []*Task

	// Per-object dependence state, indexed by ObjectID and grown in
	// ObjectOpt: the last writer (-1 = none) and the newest readLog
	// entry of a reader since it (-1 = none).
	lastWriter []TaskID
	lastRead   []int32
	// readLog lists every read since its object's last write; each
	// entry links to the previous reader of the same object.
	readLog []readEntry

	// deps gathers one Submit's dependences before they are sorted,
	// de-duplicated and copied into the task.
	deps []TaskID
	// nDeps counts every task's dependences, sizing the successor array.
	nDeps int

	// Build's tables, refilled by every Build: a count scratch, the
	// arrays the successor, user and use lists are carved from, the user
	// and use lists, the levels, the kind table, each kind's objects with
	// the scratch that orders them, and the reference order with its
	// per-object totals.
	count     []int32
	succFlat  []TaskID
	userFlat  []TaskID
	usersOf   [][]TaskID
	useFlat   []Use
	usesOf    [][]Use
	levels    []int
	kindNames []string
	kindOf    []int32
	kindIndex map[string]int32
	kindEnd   []int32
	byKind    []int32
	kindFlat  []ObjectID
	kindObjs  [][]ObjectID
	refs      []int64
	refOrder  []ObjectID
}

// readEntry is one read in Builder.readLog.
type readEntry struct {
	task TaskID
	prev int32 // the object's previous entry, or -1
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder { return new(Builder).Reset(name) }

// Reset empties b for a new graph with the given name, keeping its
// storage, and returns b. Graphs b built before are invalid from here
// on: the next declarations and Build overwrite them.
func (b *Builder) Reset(name string) *Builder {
	b.name = name
	b.objects = b.objects[:0]
	b.tasks = b.tasks[:0]
	b.lastWriter = b.lastWriter[:0]
	b.lastRead = b.lastRead[:0]
	b.readLog = b.readLog[:0]
	b.nDeps = 0
	return b
}

// slot extends s by one element and returns it with that element: the
// pointer an earlier graph left in the slot, or a new zero T.
func slot[T any](s []*T) ([]*T, *T) {
	if n := len(s); n < cap(s) && s[:n+1][n] != nil {
		s = s[:n+1]
		return s, s[n]
	}
	p := new(T)
	return append(s, p), p
}

// Object declares a data object and returns its ID.
func (b *Builder) Object(name string, size int64) ObjectID {
	return b.ObjectOpt(name, size, true)
}

// ObjectOpt declares a data object with explicit chunkability.
func (b *Builder) ObjectOpt(name string, size int64, chunkable bool) ObjectID {
	id := ObjectID(len(b.objects))
	var o *Object
	b.objects, o = slot(b.objects)
	*o = Object{ID: id, Name: name, Size: size, Chunkable: chunkable}
	b.lastWriter = append(b.lastWriter, -1)
	b.lastRead = append(b.lastRead, -1)
	return id
}

// Submit appends a task, infers its dependences, and returns its ID.
// The task keeps a copy of accesses, so the caller may reuse the slice.
func (b *Builder) Submit(kind string, cpuSec float64, accesses []Access, run func()) TaskID {
	id := TaskID(len(b.tasks))
	deps := b.deps[:0]
	for _, a := range accesses {
		if int(a.Obj) < 0 || int(a.Obj) >= len(b.objects) {
			panic(fmt.Sprintf("task: submit %q touches undeclared object %d", kind, a.Obj))
		}
		reads := a.Mode == In || a.Mode == InOut
		writes := a.Mode == Out || a.Mode == InOut
		if w := b.lastWriter[a.Obj]; w >= 0 && (reads || writes) {
			deps = append(deps, w)
		}
		if writes {
			for e := b.lastRead[a.Obj]; e >= 0; e = b.readLog[e].prev {
				deps = append(deps, b.readLog[e].task)
			}
		}
	}
	var t *Task
	b.tasks, t = slot(b.tasks)
	*t = Task{ID: id, Kind: kind, Accesses: append(t.Accesses[:0], accesses...), CPUSec: cpuSec, Run: run, deps: t.deps[:0]}
	if len(deps) > 0 {
		slices.Sort(deps)
		t.deps = append(t.deps, slices.Compact(deps)...)
		b.nDeps += len(t.deps)
	}
	b.deps = deps

	// Update per-object dependence state.
	for _, a := range accesses {
		switch a.Mode {
		case In:
			b.readLog = append(b.readLog, readEntry{task: id, prev: b.lastRead[a.Obj]})
			b.lastRead[a.Obj] = int32(len(b.readLog) - 1)
		case Out, InOut:
			b.lastWriter[a.Obj] = id
			b.lastRead[a.Obj] = -1
		}
	}
	return id
}

// Build finalizes and returns the graph: it derives the successor lists,
// the per-object user and use lists, the level table, the kind table
// with each kind's objects, and the reference order. The graph is valid
// until b's next Reset, which must come before b declares anything else.
func (b *Builder) Build() *Graph {
	if b.kindIndex == nil {
		b.kindIndex = make(map[string]int32, 8)
		b.kindNames = make([]string, 0, 8)
	}
	b.kindNames, b.kindOf = buildKindTable(b.tasks, b.kindNames, b.kindOf, b.kindIndex)
	b.buildSuccs()
	b.buildUsers()
	b.buildKindObjects()
	b.refs = reuse(b.refs, len(b.objects))
	b.refOrder = fillRefOrder(b.tasks, b.refs, b.refOrder)
	b.levels = fillLevels(b.tasks, resize(b.levels, len(b.tasks)))
	nObj, nTasks := len(b.objects), len(b.tasks)
	return &Graph{
		Name:      b.name,
		Objects:   b.objects[:nObj:nObj],
		Tasks:     b.tasks[:nTasks:nTasks],
		usersOf:   b.usersOf,
		usesOf:    b.usesOf,
		levels:    b.levels,
		kindNames: b.kindNames,
		kindOf:    b.kindOf,
		kindObjs:  b.kindObjs,
		refOrder:  b.refOrder,
	}
}

// Footprint returns the bytes b keeps for the next graph: its tables,
// and the tasks and objects it holds with their access and dependence
// arrays. Object names are not counted.
func (b *Builder) Footprint() int {
	n := bytesOf(b.objects) + bytesOf(b.tasks) + bytesOf(b.lastWriter) + bytesOf(b.lastRead) +
		bytesOf(b.readLog) + bytesOf(b.deps) + bytesOf(b.count) + bytesOf(b.succFlat) +
		bytesOf(b.userFlat) + bytesOf(b.usersOf) + bytesOf(b.useFlat) + bytesOf(b.usesOf) +
		bytesOf(b.levels) + bytesOf(b.kindNames) + bytesOf(b.kindOf) + bytesOf(b.kindEnd) +
		bytesOf(b.byKind) + bytesOf(b.kindFlat) + bytesOf(b.kindObjs) + bytesOf(b.refs) +
		bytesOf(b.refOrder)
	for _, o := range b.objects[:cap(b.objects)] {
		if o != nil {
			n += int(unsafe.Sizeof(*o))
		}
	}
	for _, t := range b.tasks[:cap(b.tasks)] {
		if t != nil {
			n += int(unsafe.Sizeof(*t)) + bytesOf(t.Accesses) + bytesOf(t.deps)
		}
	}
	return n
}

// buildSuccs carves every task's successor list from one array of
// nDeps entries. Tasks are visited in ID order, so each list comes out
// ascending.
func (b *Builder) buildSuccs() {
	if b.nDeps == 0 {
		return
	}
	tasks := b.tasks
	count := reuse(b.count, len(tasks))
	for _, t := range tasks {
		for _, d := range t.deps {
			count[d]++
		}
	}
	flat := resize(b.succFlat, b.nDeps)
	b.count, b.succFlat = count, flat
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

// buildUsers carves every object's user list, in submission order, and
// its use list, in (task, access-position) order, each from one array
// with a slot per access. A task naming an object more than once is
// listed once among its users, so such an object's user list keeps
// spare slots; its use list has an entry per access.
func (b *Builder) buildUsers() {
	count := reuse(b.count, len(b.objects))
	total := 0
	for _, t := range b.tasks {
		for _, a := range t.Accesses {
			count[a.Obj]++
		}
		total += len(t.Accesses)
	}
	flat, useFlat := resize(b.userFlat, total), resize(b.useFlat, total)
	usersOf, usesOf := reuse(b.usersOf, len(b.objects)), reuse(b.usesOf, len(b.objects))
	b.count, b.userFlat, b.usersOf, b.useFlat, b.usesOf = count, flat, usersOf, useFlat, usesOf
	for obj, n := range count {
		if n > 0 {
			usersOf[obj], flat = flat[:0:n], flat[n:]
			usesOf[obj], useFlat = useFlat[:0:n], useFlat[n:]
		}
	}
	for _, t := range b.tasks {
		k := b.kindOf[t.ID]
		for _, a := range t.Accesses {
			usesOf[a.Obj] = append(usesOf[a.Obj], Use{Task: int32(t.ID), Kind: k})
			// A repeat of this task's object was the last user recorded.
			if u := usersOf[a.Obj]; len(u) == 0 || u[len(u)-1] != t.ID {
				usersOf[a.Obj] = append(u, t.ID)
			}
		}
	}
}

// buildKindObjects lists each kind's distinct objects in first-touch
// order, from one array. It visits the tasks kind by kind, each kind's
// in ID order (a counting sort by kind index), with mark[obj] holding
// the last kind, plus one, that listed obj.
func (b *Builder) buildKindObjects() {
	nk := len(b.kindNames)
	end := reuse(b.kindEnd, nk+1)
	for _, k := range b.kindOf {
		end[k+1]++
	}
	for k := range nk {
		end[k+1] += end[k]
	}
	// Bucket the tasks: end[k] advances from kind k's start to its end.
	byKind := resize(b.byKind, len(b.tasks))
	for id, k := range b.kindOf {
		byKind[end[k]] = int32(id)
		end[k]++
	}
	mark := reuse(b.count, len(b.objects))
	// Every touched object is some kind's, so the list has at least as
	// many entries as there are touched objects.
	flat := slices.Grow(b.kindFlat[:0], len(b.objects))
	start := int32(0)
	for k := range nk {
		for _, id := range byKind[start:end[k]] {
			for _, a := range b.tasks[id].Accesses {
				if mark[a.Obj] != int32(k+1) {
					mark[a.Obj] = int32(k + 1)
					flat = append(flat, a.Obj)
				}
			}
		}
		// From here end[k] ends kind k's objects in flat, not its tasks.
		start, end[k] = end[k], int32(len(flat))
	}
	kindObjs := resize(b.kindObjs, nk)
	lo := int32(0)
	for k := range kindObjs {
		kindObjs[k], lo = flat[lo:end[k]:end[k]], end[k]
	}
	b.count, b.kindEnd, b.byKind, b.kindFlat, b.kindObjs = mark, end, byKind, flat, kindObjs
}

// fillRefOrder adds each object's loads and stores into refs, which must
// be zeroed and hold an entry per object, and returns order refilled
// with the objects whose total is nonzero, the largest total first and
// ties by ascending ID.
func fillRefOrder(tasks []*Task, refs []int64, order []ObjectID) []ObjectID {
	for _, t := range tasks {
		for _, a := range t.Accesses {
			refs[a.Obj] += a.Loads + a.Stores
		}
	}
	order = slices.Grow(order[:0], len(refs))
	for obj, n := range refs {
		if n != 0 {
			order = append(order, ObjectID(obj))
		}
	}
	slices.SortFunc(order, func(x, y ObjectID) int {
		return cmp.Or(cmp.Compare(refs[y], refs[x]), cmp.Compare(x, y))
	})
	return order
}

// fillLevels writes each task's topological level into levels and
// returns it. Submission order is a topological order: a task can only
// depend on previously submitted tasks.
func fillLevels(tasks []*Task, levels []int) []int {
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

// resize returns s with length n, in s's own array when that is large
// enough, or else a new array of exactly n. It does not clear.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reuse is resize with the n elements cleared.
func reuse[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// bytesOf returns the bytes s's array holds.
func bytesOf[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}
