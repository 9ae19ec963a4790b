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

// buildSpec builds an inline graph the way the serve daemon does: object
// names o<i>, chunkable unless no_chunk, MLP 0 meaning 1.
func buildSpec(gs *serve.GraphSpec) *task.Graph {
	b := task.NewBuilder(gs.Name)
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

// TestBuilderMatchesReference holds the dense Builder to the map-based
// one on every registered workload at its default scale, on the serve
// mix at perfbench's scales, and on seeded inline graphs.
func TestBuilderMatchesReference(t *testing.T) {
	check := func(t *testing.T, g *task.Graph) {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := task.RefValidate(g); err != nil {
			t.Fatalf("reference Validate: %v", err)
		}
		sameGraph(t, g, rebuild(g))
	}
	for _, s := range workloads.All() {
		t.Run(s.Name, func(t *testing.T) { check(t, s.Build(workloads.Params{}).Graph) })
	}
	for _, a := range serveMix {
		t.Run(fmt.Sprintf("%s@%d", a.name, a.scale), func(t *testing.T) {
			s, err := workloads.ByName(a.name)
			if err != nil {
				t.Fatal(err)
			}
			check(t, s.Build(workloads.Params{Scale: a.scale}).Graph)
		})
	}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("inline%d", seed), func(t *testing.T) { check(t, buildSpec(inlineSpec(seed))) })
	}
}

// FuzzBuilder decodes bytes into object declarations and (object, mode)
// submissions and holds the dense Builder to the reference on them. The
// first byte sets the object count; then each task is a header byte
// (access count and kind) followed by one byte per access (object and
// mode), so a task may name one object more than once.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 4, 3, 5, 9, 1, 2})
	f.Add([]byte{1, 3, 0, 1, 2, 0, 3, 0, 1, 2, 0})
	f.Add([]byte{8, 2, 0, 8, 16, 1, 9, 17, 6, 2, 10, 18, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nObj := 1 + int(data[0]%8)
		b := task.NewBuilder("fuzz")
		for i := 0; i < nObj; i++ {
			b.Object(fmt.Sprintf("o%d", i), 64)
		}
		for p := 1; p < len(data); {
			h := data[p]
			p++
			var accs []task.Access
			for k := 0; k <= int(h%4) && p < len(data); k++ {
				c := int(data[p])
				p++
				accs = append(accs, task.Access{
					Obj: task.ObjectID(c % nObj), Mode: task.AccessMode(c / nObj % 3),
					Loads: 1, Stores: 1, MLP: 1,
				})
			}
			if accs == nil {
				break
			}
			b.Submit(fmt.Sprintf("k%d", h/4%3), 1, accs, nil)
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, rebuild(g))
	})
}
