package task_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/workloads"
)

// refBuilder is the map-based Builder the dense one replaced, kept as
// the oracle TestBuilderMatchesReference and FuzzBuilder hold it to. Its
// graph keeps only what the comparison reads.
type refBuilder struct {
	g *refGraph

	lastWriter   map[task.ObjectID]task.TaskID
	readersSince map[task.ObjectID][]task.TaskID
}

type refGraph struct {
	Objects []*task.Object
	Tasks   []*refTask

	usersOf map[task.ObjectID][]task.TaskID
}

type refTask struct {
	ID       task.TaskID
	Kind     string
	Accesses []task.Access

	deps  []task.TaskID
	succs []task.TaskID
}

func newRefBuilder() *refBuilder {
	return &refBuilder{
		g: &refGraph{
			usersOf: make(map[task.ObjectID][]task.TaskID),
		},
		lastWriter:   make(map[task.ObjectID]task.TaskID),
		readersSince: make(map[task.ObjectID][]task.TaskID),
	}
}

func (b *refBuilder) ObjectOpt(name string, size int64, chunkable bool) task.ObjectID {
	id := task.ObjectID(len(b.g.Objects))
	b.g.Objects = append(b.g.Objects, &task.Object{ID: id, Name: name, Size: size, Chunkable: chunkable})
	return id
}

func (b *refBuilder) Submit(kind string, accesses []task.Access) task.TaskID {
	id := task.TaskID(len(b.g.Tasks))
	t := &refTask{ID: id, Kind: kind, Accesses: accesses}

	depSet := make(map[task.TaskID]struct{})
	for _, a := range t.Accesses {
		if int(a.Obj) < 0 || int(a.Obj) >= len(b.g.Objects) {
			panic(fmt.Sprintf("task: submit %q touches undeclared object %d", kind, a.Obj))
		}
		reads := a.Mode == task.In || a.Mode == task.InOut
		writes := a.Mode == task.Out || a.Mode == task.InOut
		if reads {
			if w, ok := b.lastWriter[a.Obj]; ok {
				depSet[w] = struct{}{}
			}
		}
		if writes {
			if w, ok := b.lastWriter[a.Obj]; ok {
				depSet[w] = struct{}{}
			}
			for _, r := range b.readersSince[a.Obj] {
				if r != id {
					depSet[r] = struct{}{}
				}
			}
		}
	}
	delete(depSet, id)
	t.deps = make([]task.TaskID, 0, len(depSet))
	for d := range depSet {
		t.deps = append(t.deps, d)
	}
	sort.Slice(t.deps, func(i, j int) bool { return t.deps[i] < t.deps[j] })

	b.g.Tasks = append(b.g.Tasks, t)
	for _, d := range t.deps {
		dep := b.g.Tasks[d]
		dep.succs = append(dep.succs, id)
	}

	// Update per-object dependence state and user lists.
	seen := make(map[task.ObjectID]bool)
	for _, a := range t.Accesses {
		if !seen[a.Obj] {
			b.g.usersOf[a.Obj] = append(b.g.usersOf[a.Obj], id)
			seen[a.Obj] = true
		}
		switch a.Mode {
		case task.In:
			b.readersSince[a.Obj] = append(b.readersSince[a.Obj], id)
		case task.Out, task.InOut:
			b.lastWriter[a.Obj] = id
			b.readersSince[a.Obj] = b.readersSince[a.Obj][:0]
		}
	}
	return id
}

func (g *refGraph) PrevUser(obj task.ObjectID, t task.TaskID) (task.TaskID, bool) {
	users := g.usersOf[obj]
	i := sort.Search(len(users), func(i int) bool { return users[i] >= t })
	if i == 0 {
		return 0, false
	}
	return users[i-1], true
}

func (g *refGraph) NextUser(obj task.ObjectID, t task.TaskID) (task.TaskID, bool) {
	users := g.usersOf[obj]
	i := sort.Search(len(users), func(i int) bool { return users[i] > t })
	if i == len(users) {
		return 0, false
	}
	return users[i], true
}

func (g *refGraph) Levels() []int {
	levels := make([]int, len(g.Tasks))
	for _, t := range g.Tasks {
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

// kindTable lists kinds in first-appearance order and each task's index.
func (g *refGraph) kindTable() ([]string, []int) {
	var names []string
	of := make([]int, len(g.Tasks))
	for i, t := range g.Tasks {
		k := slices.Index(names, t.Kind)
		if k < 0 {
			k = len(names)
			names = append(names, t.Kind)
		}
		of[i] = k
	}
	return names, of
}

// uses lists an entry per access to obj, scanning every task in order.
func (g *refGraph) uses(obj task.ObjectID) []task.Use {
	_, kindOf := g.kindTable()
	var uses []task.Use
	for _, t := range g.Tasks {
		for _, a := range t.Accesses {
			if a.Obj == obj {
				uses = append(uses, task.Use{Task: int32(t.ID), Kind: int32(kindOf[t.ID])})
			}
		}
	}
	return uses
}

// kindObjects lists each kind's distinct objects in the order the
// kind's tasks first touch them.
func (g *refGraph) kindObjects() [][]task.ObjectID {
	names, kindOf := g.kindTable()
	objs := make([][]task.ObjectID, len(names))
	for _, t := range g.Tasks {
		k := kindOf[t.ID]
		for _, a := range t.Accesses {
			if !slices.Contains(objs[k], a.Obj) {
				objs[k] = append(objs[k], a.Obj)
			}
		}
	}
	return objs
}

// refOrder sorts the objects with nonzero loads plus stores by that
// total, descending, ties by ascending ID.
func (g *refGraph) refOrder() []task.ObjectID {
	refs := make(map[task.ObjectID]int64)
	for _, t := range g.Tasks {
		for _, a := range t.Accesses {
			refs[a.Obj] += a.Loads + a.Stores
		}
	}
	var order []task.ObjectID
	for obj, n := range refs {
		if n != 0 {
			order = append(order, obj)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if ri, rj := refs[order[i]], refs[order[j]]; ri != rj {
			return ri > rj
		}
		return order[i] < order[j]
	})
	return order
}

// rebuild replays g's declarations and submissions through the
// reference builder.
func rebuild(g *task.Graph) *refGraph {
	rb := newRefBuilder()
	for _, o := range g.Objects {
		rb.ObjectOpt(o.Name, o.Size, o.Chunkable)
	}
	for _, t := range g.Tasks {
		rb.Submit(t.Kind, t.Accesses)
	}
	return rb.g
}

// sameGraph fails t at the first accessor where g and ref disagree.
func sameGraph(t testing.TB, g *task.Graph, ref *refGraph) {
	t.Helper()
	if len(g.Tasks) != len(ref.Tasks) || len(g.Objects) != len(ref.Objects) {
		t.Fatalf("%d tasks, %d objects; reference %d, %d", len(g.Tasks), len(g.Objects), len(ref.Tasks), len(ref.Objects))
	}
	kinds, kindOf := ref.kindTable()
	if !slices.Equal(g.Kinds(), kinds) {
		t.Fatalf("Kinds = %v, reference %v", g.Kinds(), kinds)
	}
	kindObjs := ref.kindObjects()
	for k := -1; k <= len(kinds); k++ {
		var want []task.ObjectID
		if k >= 0 && k < len(kinds) {
			want = kindObjs[k]
		}
		if !slices.Equal(g.KindObjects(k), want) {
			t.Fatalf("KindObjects(%d) = %v, reference %v", k, g.KindObjects(k), want)
		}
	}
	if !slices.Equal(g.RefOrder(), ref.refOrder()) {
		t.Fatalf("RefOrder = %v, reference %v", g.RefOrder(), ref.refOrder())
	}
	if !slices.Equal(g.Levels(), ref.Levels()) {
		t.Fatalf("Levels = %v, reference %v", g.Levels(), ref.Levels())
	}
	for i, rt := range ref.Tasks {
		tk := g.Task(task.TaskID(i))
		if !slices.Equal(tk.Deps(), rt.deps) {
			t.Fatalf("task %d: Deps = %v, reference %v", i, tk.Deps(), rt.deps)
		}
		if !slices.Equal(tk.Succs(), rt.succs) {
			t.Fatalf("task %d: Succs = %v, reference %v", i, tk.Succs(), rt.succs)
		}
		if k := g.KindIndex(tk.ID); k != kindOf[i] {
			t.Fatalf("task %d: KindIndex = %d, reference %d", i, k, kindOf[i])
		}
	}
	n := task.TaskID(len(g.Tasks))
	for o := -1; o <= len(g.Objects); o++ {
		obj := task.ObjectID(o)
		users := ref.usersOf[obj]
		if !slices.Equal(g.Users(obj), users) {
			t.Fatalf("object %d: Users = %v, reference %v", o, g.Users(obj), users)
		}
		if uses := ref.uses(obj); !slices.Equal(g.Uses(obj), uses) {
			t.Fatalf("object %d: Uses = %v, reference %v", o, g.Uses(obj), uses)
		}
		// Probe either side of every user and both ends.
		probes := []task.TaskID{-1, 0, n - 1, n}
		for _, u := range users {
			probes = append(probes, u-1, u, u+1)
		}
		for _, at := range probes {
			p, pok := g.PrevUser(obj, at)
			rp, rpok := ref.PrevUser(obj, at)
			nx, nok := g.NextUser(obj, at)
			rn, rnok := ref.NextUser(obj, at)
			if p != rp || pok != rpok || nx != rn || nok != rnok {
				t.Fatalf("object %d at task %d: PrevUser %d,%v NextUser %d,%v; reference %d,%v %d,%v",
					o, at, p, pok, nx, nok, rp, rpok, rn, rnok)
			}
		}
	}
}

// serveMix is the serve-http mix of perfbench: each app at the scale the
// benchmark builds it.
var serveMix = []struct {
	name  string
	scale int
}{
	{"bfs", 5}, {"cg", 6}, {"cholesky", 6}, {"fft", 20}, {"heat", 6},
	{"kmeans", 4}, {"lu", 6}, {"pagerank", 4}, {"qr", 5}, {"sort", 20},
	{"sparselu", 8}, {"strassen", 1}, {"wave", 6},
}

// inlineSpec draws an inline graph in the serve request schema: a few
// objects and a few dozen tasks of four kinds over neighbouring objects,
// some naming one object twice.
func inlineSpec(seed int64) *serve.GraphSpec {
	r := rand.New(rand.NewSource(seed))
	gs := &serve.GraphSpec{Name: fmt.Sprintf("inline%d", seed)}
	nobj := 1 + r.Intn(16)
	for i := 0; i < nobj; i++ {
		gs.Objects = append(gs.Objects, serve.ObjectSpec{Size: 1 + r.Int63n(1<<20), NoChunk: r.Intn(4) == 0})
	}
	modes := []string{"in", "out", "inout"}
	for t := 0; t < 1+r.Intn(64); t++ {
		ts := serve.TaskSpec{Kind: fmt.Sprintf("k%d", r.Intn(4)), CPUSec: r.Float64()}
		first := r.Intn(nobj)
		for k := 0; k < 1+r.Intn(4); k++ {
			ts.Accesses = append(ts.Accesses, serve.AccessSpec{
				Obj: (first + k*r.Intn(2)) % nobj, Mode: modes[r.Intn(3)],
				Loads: r.Int63n(1 << 10), Stores: r.Int63n(1 << 10), MLP: float64(r.Intn(8)),
			})
		}
		gs.Tasks = append(gs.Tasks, ts)
	}
	return gs
}

// buildSpec builds an inline graph in b the way the serve daemon does:
// object names o<i>, chunkable unless no_chunk, MLP 0 meaning 1.
func buildSpec(b *task.Builder, gs *serve.GraphSpec) *task.Graph {
	b.Reset(gs.Name)
	for i, o := range gs.Objects {
		b.ObjectOpt(fmt.Sprintf("o%d", i), o.Size, !o.NoChunk)
	}
	modes := map[string]task.AccessMode{"in": task.In, "out": task.Out, "inout": task.InOut}
	for _, t := range gs.Tasks {
		accs := make([]task.Access, len(t.Accesses))
		for i, a := range t.Accesses {
			accs[i] = task.Access{Obj: task.ObjectID(a.Obj), Mode: modes[a.Mode], Loads: a.Loads, Stores: a.Stores, MLP: max(a.MLP, 1)}
		}
		b.Submit(t.Kind, t.CPUSec, accs, nil)
	}
	return b.Build()
}

// unrelated builds a seeded graph of nObj objects and nTasks tasks of
// nKinds kinds in b, each task naming up to maxAcc objects in any mode
// and carrying a kernel, so a graph rebuilt over it must clear them all.
func unrelated(b *task.Builder, seed int64, nObj, nTasks, nKinds, maxAcc int) {
	r := rand.New(rand.NewSource(seed))
	b.Reset(fmt.Sprintf("unrelated%d", seed))
	for i := 0; i < nObj; i++ {
		b.ObjectOpt(fmt.Sprintf("u%d", i), 1+r.Int63n(1<<20), r.Intn(2) == 0)
	}
	var accs []task.Access
	for i := 0; i < nTasks; i++ {
		accs = accs[:0]
		for k := 0; k <= r.Intn(maxAcc); k++ {
			accs = append(accs, task.Access{
				Obj: task.ObjectID(r.Intn(nObj)), Mode: task.AccessMode(r.Intn(3)),
				Loads: r.Int63n(100), Stores: r.Int63n(100), MLP: float64(1 + r.Intn(8)),
			})
		}
		b.Submit(fmt.Sprintf("u%d", r.Intn(nKinds)), r.Float64(), accs, func() {})
	}
	b.Build()
}

// sameRebuild builds a case in b right after an unrelated larger graph
// and an unrelated smaller one, and fails t unless the result equals
// fresh, the case's build in a new Builder, and the reference.
func sameRebuild(t testing.TB, b *task.Builder, fresh *task.Graph, build func(*task.Builder) *task.Graph) {
	t.Helper()
	nObj, nTasks := len(fresh.Objects), len(fresh.Tasks)
	unrelated(b, 1, 2*nObj+2, 2*nTasks+2, 2*len(fresh.Kinds())+2, 8)
	unrelated(b, 2, nObj/2+1, nTasks/2+1, 1, 2)
	g := build(b)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	sameBuild(t, g, fresh)
	sameGraph(t, g, rebuild(g))
}

// sameBuild fails t where g differs from want in anything a graph
// exposes.
func sameBuild(t testing.TB, g, want *task.Graph) {
	t.Helper()
	if g.Name != want.Name || len(g.Objects) != len(want.Objects) || len(g.Tasks) != len(want.Tasks) {
		t.Fatalf("graph %q of %d objects and %d tasks; fresh %q of %d and %d",
			g.Name, len(g.Objects), len(g.Tasks), want.Name, len(want.Objects), len(want.Tasks))
	}
	for i, o := range want.Objects {
		if *g.Objects[i] != *o {
			t.Fatalf("object %d = %+v, fresh %+v", i, *g.Objects[i], *o)
		}
		if !slices.Equal(g.Users(o.ID), want.Users(o.ID)) || !slices.Equal(g.Uses(o.ID), want.Uses(o.ID)) {
			t.Fatalf("object %d: Users = %v and Uses = %v, fresh %v and %v",
				i, g.Users(o.ID), g.Uses(o.ID), want.Users(o.ID), want.Uses(o.ID))
		}
	}
	for k := range want.Kinds() {
		if !slices.Equal(g.KindObjects(k), want.KindObjects(k)) {
			t.Fatalf("KindObjects(%d) = %v, fresh %v", k, g.KindObjects(k), want.KindObjects(k))
		}
	}
	if !slices.Equal(g.RefOrder(), want.RefOrder()) {
		t.Fatalf("RefOrder = %v, fresh %v", g.RefOrder(), want.RefOrder())
	}
	for i, w := range want.Tasks {
		tk := g.Tasks[i]
		if tk.ID != w.ID || tk.Kind != w.Kind || tk.CPUSec != w.CPUSec || (tk.Run == nil) != (w.Run == nil) ||
			!slices.Equal(tk.Accesses, w.Accesses) || !slices.Equal(tk.Deps(), w.Deps()) || !slices.Equal(tk.Succs(), w.Succs()) ||
			g.KindIndex(tk.ID) != want.KindIndex(w.ID) {
			t.Fatalf("task %d = %+v, fresh %+v", i, *tk, *w)
		}
	}
	if !slices.Equal(g.Kinds(), want.Kinds()) || !slices.Equal(g.Levels(), want.Levels()) {
		t.Fatalf("Kinds %v and Levels %v; fresh %v and %v", g.Kinds(), g.Levels(), want.Kinds(), want.Levels())
	}
}

// TestBuilderMatchesReference holds the dense Builder to the map-based
// one on every registered workload at its default scale, on the serve
// mix at perfbench's scales, and on seeded inline graphs. Each case is
// built fresh and again in one shared Builder, and both builds must
// agree.
func TestBuilderMatchesReference(t *testing.T) {
	var shared task.Builder
	check := func(t *testing.T, build func(*task.Builder) *task.Graph) {
		g := build(new(task.Builder))
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := task.RefValidate(g); err != nil {
			t.Fatalf("reference Validate: %v", err)
		}
		sameGraph(t, g, rebuild(g))
		sameRebuild(t, &shared, g, build)
	}
	for _, s := range workloads.All() {
		t.Run(s.Name, func(t *testing.T) {
			check(t, func(b *task.Builder) *task.Graph { return s.Build(workloads.Params{Into: b}).Graph })
		})
	}
	for _, a := range serveMix {
		t.Run(fmt.Sprintf("%s@%d", a.name, a.scale), func(t *testing.T) {
			s, err := workloads.ByName(a.name)
			if err != nil {
				t.Fatal(err)
			}
			check(t, func(b *task.Builder) *task.Graph { return s.Build(workloads.Params{Scale: a.scale, Into: b}).Graph })
		})
	}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("inline%d", seed), func(t *testing.T) {
			gs := inlineSpec(seed)
			check(t, func(b *task.Builder) *task.Graph { return buildSpec(b, gs) })
		})
	}
}

// fuzzGraph decodes data into a graph built in b. The first byte sets
// the object count; then each task is a header byte (access count and
// kind) followed by one byte per access (object and mode), so a task
// may name one object more than once.
func fuzzGraph(b *task.Builder, data []byte) *task.Graph {
	nObj := 1 + int(data[0]%8)
	b.Reset("fuzz")
	for i := 0; i < nObj; i++ {
		b.Object(fmt.Sprintf("o%d", i), 64)
	}
	var accs []task.Access
	for p := 1; p < len(data); {
		h := data[p]
		p++
		accs = accs[:0]
		for k := 0; k <= int(h%4) && p < len(data); k++ {
			c := int(data[p])
			p++
			accs = append(accs, task.Access{
				Obj: task.ObjectID(c % nObj), Mode: task.AccessMode(c / nObj % 3),
				Loads: 1, Stores: 1, MLP: 1,
			})
		}
		if len(accs) == 0 {
			break
		}
		b.Submit(fmt.Sprintf("k%d", h/4%3), 1, accs, nil)
	}
	return b.Build()
}

// FuzzBuilder decodes bytes into object declarations and (object, mode)
// submissions and holds the dense Builder to the reference on them, built
// fresh and again in a Builder that built other graphs first.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 4, 3, 5, 9, 1, 2})
	f.Add([]byte{1, 3, 0, 1, 2, 0, 3, 0, 1, 2, 0})
	f.Add([]byte{8, 2, 0, 8, 16, 1, 9, 17, 6, 2, 10, 18, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := fuzzGraph(new(task.Builder), data)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, rebuild(g))
		sameRebuild(t, new(task.Builder), g, func(b *task.Builder) *task.Graph { return fuzzGraph(b, data) })
	})
}
