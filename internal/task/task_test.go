package task

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// chain builds w(A); r(A)+w(B); r(B)+w(C): a three-task chain.
func chain(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("chain")
	a := b.Object("A", 1024)
	bb := b.Object("B", 1024)
	c := b.Object("C", 1024)
	b.Submit("p", 1, []Access{{Obj: a, Mode: Out, Loads: 0, Stores: 16, MLP: 4}}, nil)
	b.Submit("q", 1, []Access{{Obj: a, Mode: In, Loads: 16, MLP: 4}, {Obj: bb, Mode: Out, Stores: 16, MLP: 4}}, nil)
	b.Submit("r", 1, []Access{{Obj: bb, Mode: In, Loads: 16, MLP: 4}, {Obj: c, Mode: Out, Stores: 16, MLP: 4}}, nil)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRAWDependence(t *testing.T) {
	g := chain(t)
	if d := g.Task(1).Deps(); len(d) != 1 || d[0] != 0 {
		t.Fatalf("task 1 deps = %v, want [0]", d)
	}
	if d := g.Task(2).Deps(); len(d) != 1 || d[0] != 1 {
		t.Fatalf("task 2 deps = %v, want [1]", d)
	}
	if s := g.Task(0).Succs(); len(s) != 1 || s[0] != 1 {
		t.Fatalf("task 0 succs = %v, want [1]", s)
	}
}

func TestWARAndWAWDependence(t *testing.T) {
	b := NewBuilder("war")
	a := b.Object("A", 64)
	w1 := b.Submit("w", 1, []Access{{Obj: a, Mode: Out, Stores: 1, MLP: 1}}, nil)
	r1 := b.Submit("r", 1, []Access{{Obj: a, Mode: In, Loads: 1, MLP: 1}}, nil)
	r2 := b.Submit("r", 1, []Access{{Obj: a, Mode: In, Loads: 1, MLP: 1}}, nil)
	w2 := b.Submit("w", 1, []Access{{Obj: a, Mode: Out, Stores: 1, MLP: 1}}, nil)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The two readers are independent of each other.
	if len(g.Task(r2).Deps()) != 1 || g.Task(r2).Deps()[0] != w1 {
		t.Fatalf("r2 deps = %v, want [w1]", g.Task(r2).Deps())
	}
	// The second writer waits for both readers (WAR) and the writer (WAW).
	deps := g.Task(w2).Deps()
	want := map[TaskID]bool{w1: true, r1: true, r2: true}
	if len(deps) != 3 {
		t.Fatalf("w2 deps = %v, want 3 of %v", deps, want)
	}
	for _, d := range deps {
		if !want[d] {
			t.Fatalf("w2 unexpected dep %d", d)
		}
	}
}

func TestInOutSerializes(t *testing.T) {
	b := NewBuilder("inout")
	a := b.Object("A", 64)
	var prev TaskID = -1
	for i := 0; i < 5; i++ {
		id := b.Submit("acc", 1, []Access{{Obj: a, Mode: InOut, Loads: 1, Stores: 1, MLP: 1}}, nil)
		if i > 0 {
			deps := b.tasks[id].deps
			if len(deps) != 1 || deps[0] != prev {
				t.Fatalf("inout task %d deps = %v, want [%d]", id, deps, prev)
			}
		}
		prev = id
	}
}

func TestLevels(t *testing.T) {
	g := chain(t)
	lv := g.Levels()
	for i, want := range []int{0, 1, 2} {
		if lv[i] != want {
			t.Fatalf("levels = %v", lv)
		}
	}
}

func TestRootsAndUsers(t *testing.T) {
	g := chain(t)
	roots := g.Roots()
	if len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("roots = %v", roots)
	}
	users := g.Users(ObjectID(1)) // B touched by tasks 1 and 2
	if len(users) != 2 || users[0] != 1 || users[1] != 2 {
		t.Fatalf("users of B = %v", users)
	}
}

func TestPrevNextUser(t *testing.T) {
	g := chain(t)
	objB := ObjectID(1)
	if p, ok := g.PrevUser(objB, 2); !ok || p != 1 {
		t.Fatalf("PrevUser(B, 2) = %v %v", p, ok)
	}
	if _, ok := g.PrevUser(objB, 1); ok {
		t.Fatal("PrevUser(B, 1) should not exist")
	}
	if n, ok := g.NextUser(objB, 1); !ok || n != 2 {
		t.Fatalf("NextUser(B, 1) = %v %v", n, ok)
	}
	if _, ok := g.NextUser(objB, 2); ok {
		t.Fatal("NextUser(B, 2) should not exist")
	}
}

func TestCriticalPath(t *testing.T) {
	g := chain(t)
	cp, path := g.CriticalPath(func(tk *Task) float64 { return tk.CPUSec })
	if cp != 3 {
		t.Fatalf("critical path = %g, want 3", cp)
	}
	if len(path) != 3 || path[0] != 0 || path[2] != 2 {
		t.Fatalf("critical path tasks = %v", path)
	}
	if w := g.TotalWork(func(tk *Task) float64 { return tk.CPUSec }); w != 3 {
		t.Fatalf("total work = %g", w)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	b := NewBuilder("diamond")
	a := b.Object("A", 64)
	l := b.Object("L", 64)
	r := b.Object("R", 64)
	b.Submit("src", 1, []Access{{Obj: a, Mode: Out, Stores: 1, MLP: 1}}, nil)
	b.Submit("left", 5, []Access{{Obj: a, Mode: In, Loads: 1, MLP: 1}, {Obj: l, Mode: Out, Stores: 1, MLP: 1}}, nil)
	b.Submit("right", 2, []Access{{Obj: a, Mode: In, Loads: 1, MLP: 1}, {Obj: r, Mode: Out, Stores: 1, MLP: 1}}, nil)
	b.Submit("sink", 1, []Access{{Obj: l, Mode: In, Loads: 1, MLP: 1}, {Obj: r, Mode: In, Loads: 1, MLP: 1}}, nil)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cp, path := g.CriticalPath(func(tk *Task) float64 { return tk.CPUSec })
	if cp != 7 { // src + left + sink
		t.Fatalf("critical path = %g, want 7", cp)
	}
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("critical path = %v, want through task 1", path)
	}
}

func TestObjectTraffic(t *testing.T) {
	g := chain(t)
	traffic := g.ObjectTraffic()
	bAgg := traffic[ObjectID(1)]
	if bAgg.Loads != 16 || bAgg.Stores != 16 {
		t.Fatalf("B aggregate = %+v", bAgg)
	}
	if bAgg.MLP != 4 {
		t.Fatalf("B aggregate MLP = %g, want 4", bAgg.MLP)
	}
}

func TestTaskPredicates(t *testing.T) {
	g := chain(t)
	t1 := g.Task(1)
	if !t1.Reads(0) || t1.Writes(0) {
		t.Fatal("task 1 should read A only")
	}
	if !t1.Writes(1) || t1.Reads(1) {
		t.Fatal("task 1 should write B only")
	}
	if t1.Touches(2) {
		t.Fatal("task 1 must not touch C")
	}
	r, w := t1.TrueBytes(64)
	if r != 16*64 || w != 16*64 {
		t.Fatalf("TrueBytes = %d, %d", r, w)
	}
}

func TestAccessModeString(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" {
		t.Fatal("mode strings wrong")
	}
}

// TestRandomGraphInvariants property-checks the builder: any random
// submission sequence yields a graph that passes Validate, whose edges all
// point backwards, and in which any two tasks where one writes an object
// the other touches are ordered by a dependence path.
func TestRandomGraphInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("rand")
		nObj := rng.Intn(6) + 1
		objs := make([]ObjectID, nObj)
		for i := range objs {
			objs[i] = b.Object("o", int64(rng.Intn(1<<16)+64))
		}
		nTasks := rng.Intn(40) + 1
		for i := 0; i < nTasks; i++ {
			var acc []Access
			used := map[ObjectID]bool{}
			for j := 0; j <= rng.Intn(3); j++ {
				o := objs[rng.Intn(nObj)]
				if used[o] {
					continue
				}
				used[o] = true
				acc = append(acc, Access{
					Obj:    o,
					Mode:   AccessMode(rng.Intn(3)),
					Loads:  int64(rng.Intn(1000)),
					Stores: int64(rng.Intn(1000)),
					MLP:    1 + rng.Float64()*15,
				})
			}
			if acc == nil {
				acc = []Access{{Obj: objs[0], Mode: In, Loads: 1, MLP: 1}}
			}
			b.Submit("k", rng.Float64(), acc, nil)
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		// Reachability closure over the DAG.
		reach := make([]map[TaskID]bool, len(g.Tasks))
		for _, tk := range g.Tasks {
			r := map[TaskID]bool{}
			for _, d := range tk.deps {
				r[d] = true
				for k := range reach[d] {
					r[k] = true
				}
			}
			reach[tk.ID] = r
		}
		// Conflict implies ordering.
		for i, ti := range g.Tasks {
			for j := i + 1; j < len(g.Tasks); j++ {
				tj := g.Tasks[j]
				conflict := false
				for _, o := range g.Objects {
					if (ti.Writes(o.ID) && tj.Touches(o.ID)) || (tj.Writes(o.ID) && ti.Touches(o.ID)) {
						conflict = true
						break
					}
				}
				if conflict && !reach[tj.ID][ti.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestHandAssembledGraph: a graph assembled without a Builder has no
// user, use or kind-object lists and no level table; the accessors
// answer as for unused objects and level-0 tasks instead of indexing out
// of range. The reference order, which initial placement reads, is
// derived from the tasks instead.
func TestHandAssembledGraph(t *testing.T) {
	g := &Graph{
		Objects: []*Object{{ID: 0, Name: "A", Size: 64}, {ID: 1, Name: "B", Size: 64}, {ID: 2, Name: "C", Size: 64}},
		Tasks: []*Task{
			{ID: 0, Kind: "k", Accesses: []Access{{Obj: 0, Mode: Out, Stores: 1, MLP: 1}, {Obj: 2, Mode: Out, MLP: 1}}},
			{ID: 1, Kind: "k", Accesses: []Access{{Obj: 0, Mode: In, Loads: 1, MLP: 1}, {Obj: 1, Mode: InOut, Loads: 2, Stores: 1, MLP: 1}}},
		},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if u := g.Users(0); u != nil {
		t.Fatalf("Users(0) = %v, want nil", u)
	}
	if u := g.Uses(0); u != nil {
		t.Fatalf("Uses(0) = %v, want nil", u)
	}
	if o := g.KindObjects(0); o != nil {
		t.Fatalf("KindObjects(0) = %v, want nil", o)
	}
	// B has 3 references and A 2; C, touched without traffic, has none.
	if o := g.RefOrder(); len(o) != 2 || o[0] != 1 || o[1] != 0 {
		t.Fatalf("RefOrder = %v, want [1 0]", o)
	}
	if _, ok := g.PrevUser(0, 1); ok {
		t.Fatal("PrevUser found a user")
	}
	if _, ok := g.NextUser(0, 0); ok {
		t.Fatal("NextUser found a user")
	}
	if lv := g.Levels(); len(lv) != 2 || lv[0] != 0 || lv[1] != 0 {
		t.Fatalf("Levels = %v, want [0 0]", lv)
	}
}

// TestGraphConcurrentReads: the harness and the daemon share built
// graphs across goroutines, so every accessor must be a pure read (run
// under -race).
func TestGraphConcurrentReads(t *testing.T) {
	g := diamond() // not yet validated
	want := g.Levels()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Validate(); err != nil {
				t.Error(err)
			}
			if lv := g.Levels(); len(lv) != 4 || lv[3] != want[3] {
				t.Errorf("Levels = %v, want %v", lv, want)
			}
			if p, ok := g.PrevUser(0, 3); !ok || p != 2 {
				t.Errorf("PrevUser(A, 3) = %v %v", p, ok)
			}
			if k := g.KindIndex(3); g.Kinds()[k] != "sink" {
				t.Errorf("KindIndex(3) = %d", k)
			}
			if u := g.Uses(0); len(u) != 4 || u[3] != (Use{Task: 3, Kind: 3}) {
				t.Errorf("Uses(A) = %v", u)
			}
			if o := g.KindObjects(3); len(o) != 3 || o[0] != 1 || o[1] != 2 || o[2] != 0 {
				t.Errorf("KindObjects(sink) = %v", o)
			}
			if o := g.RefOrder(); len(o) != 3 || o[0] != 0 || o[1] != 1 || o[2] != 2 {
				t.Errorf("RefOrder = %v", o)
			}
		}()
	}
	wg.Wait()
}

func TestSubmitUndeclaredObjectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on undeclared object")
		}
	}()
	b := NewBuilder("bad")
	b.Submit("k", 1, []Access{{Obj: 7, Mode: In, Loads: 1, MLP: 1}}, nil)
}
