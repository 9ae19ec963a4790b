package task

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// refValidate is the Validate the dense one replaced, with its succSeen
// map and without the success latch, kept as the oracle for every check
// Validate makes.
func (g *Graph) refValidate() error {
	for i, o := range g.Objects {
		if o.ID != ObjectID(i) {
			return fmt.Errorf("task: object %d has ID %d", i, o.ID)
		}
		if o.Size <= 0 {
			return fmt.Errorf("task: object %q has size %d", o.Name, o.Size)
		}
	}
	succSeen := make(map[[2]TaskID]bool)
	for i, t := range g.Tasks {
		if t.ID != TaskID(i) {
			return fmt.Errorf("task: task %d has ID %d", i, t.ID)
		}
		if t.CPUSec < 0 {
			return fmt.Errorf("task %d: negative CPU time", t.ID)
		}
		if !(t.CPUSec <= math.MaxFloat64) {
			return fmt.Errorf("task %d: CPU time %g is not finite", t.ID, t.CPUSec)
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
			if !(a.MLP <= math.MaxFloat64) {
				return fmt.Errorf("task %d: MLP %g is not finite", t.ID, a.MLP)
			}
		}
		for _, d := range t.deps {
			if d >= t.ID || d < 0 {
				return fmt.Errorf("task %d: dependence on %d violates submission order", t.ID, d)
			}
		}
		for _, s := range t.succs {
			if s <= t.ID || int(s) >= len(g.Tasks) {
				return fmt.Errorf("task %d: successor %d out of order", t.ID, s)
			}
			succSeen[[2]TaskID{t.ID, s}] = true
		}
	}
	for _, t := range g.Tasks {
		for _, d := range t.deps {
			if !succSeen[[2]TaskID{d, t.ID}] {
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
	return nil
}

// RefValidate exposes the reference to the external test package, which
// can range over the workload graphs.
var RefValidate = (*Graph).refValidate

// diamond builds w(A); r(A)+w(B); r(A)+w(C); r(B)+r(C)+rw(A): task 3
// depends on all three others, and A has four users.
func diamond() *Graph {
	b := NewBuilder("diamond")
	a := b.Object("A", 64)
	bb := b.Object("B", 64)
	c := b.Object("C", 64)
	b.Submit("src", 1, []Access{{Obj: a, Mode: Out, Stores: 1, MLP: 1}}, nil)
	b.Submit("left", 1, []Access{{Obj: a, Mode: In, Loads: 1, MLP: 1}, {Obj: bb, Mode: Out, Stores: 1, MLP: 1}}, nil)
	b.Submit("right", 1, []Access{{Obj: a, Mode: In, Loads: 1, MLP: 1}, {Obj: c, Mode: Out, Stores: 1, MLP: 1}}, nil)
	b.Submit("sink", 1, []Access{
		{Obj: bb, Mode: In, Loads: 1, MLP: 1}, {Obj: c, Mode: In, Loads: 1, MLP: 1},
		{Obj: a, Mode: InOut, Loads: 1, Stores: 1, MLP: 1},
	}, nil)
	return b.Build()
}

// TestValidateMatchesReference breaks a Builder-built graph one invariant
// at a time: Validate and the reference must reject each break with the
// same message.
func TestValidateMatchesReference(t *testing.T) {
	g := diamond()
	if err := g.refValidate(); err != nil {
		t.Fatalf("reference rejects the intact graph: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate rejects the intact graph: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(g *Graph)
		want   string
	}{
		{"object ID", func(g *Graph) { g.Objects[1].ID = 5 }, "task: object 1 has ID 5"},
		{"task ID", func(g *Graph) { g.Tasks[2].ID = 7 }, "task: task 2 has ID 7"},
		{"zero size", func(g *Graph) { g.Objects[2].Size = 0 }, `task: object "C" has size 0`},
		{"negative CPU", func(g *Graph) { g.Tasks[1].CPUSec = -1 }, "task 1: negative CPU time"},
		{"negative loads", func(g *Graph) { g.Tasks[3].Accesses[2].Loads = -1 }, "task 3: negative access counts"},
		{"negative stores", func(g *Graph) { g.Tasks[0].Accesses[0].Stores = -1 }, "task 0: negative access counts"},
		{"MLP below 1", func(g *Graph) { g.Tasks[2].Accesses[1].MLP = 0.5 }, "task 2: MLP 0.5 < 1"},
		{"infinite CPU", func(g *Graph) { g.Tasks[1].CPUSec = math.Inf(1) }, "task 1: CPU time +Inf is not finite"},
		{"NaN CPU", func(g *Graph) { g.Tasks[2].CPUSec = math.NaN() }, "task 2: CPU time NaN is not finite"},
		{"infinite MLP", func(g *Graph) { g.Tasks[3].Accesses[0].MLP = math.Inf(1) }, "task 3: MLP +Inf is not finite"},
		{"NaN MLP", func(g *Graph) { g.Tasks[0].Accesses[0].MLP = math.NaN() }, "task 0: MLP NaN is not finite"},
		{"unknown object", func(g *Graph) { g.Tasks[1].Accesses[1].Obj = 9 }, "task 1: access to unknown object 9"},
		{"forward dependence", func(g *Graph) { g.Tasks[1].deps = []TaskID{0, 2} }, "task 1: dependence on 2 violates submission order"},
		{"negative dependence", func(g *Graph) { g.Tasks[3].deps = []TaskID{-1, 1, 2} }, "task 3: dependence on -1 violates submission order"},
		{"missing successor edge", func(g *Graph) { g.Tasks[0].succs = []TaskID{1, 3} }, "task 2: dep 0 lacks matching successor edge"},
		{"backward successor", func(g *Graph) { g.Tasks[2].succs = []TaskID{1, 3} }, "task 2: successor 1 out of order"},
		{"successor past the end", func(g *Graph) { g.Tasks[1].succs = []TaskID{3, 4} }, "task 1: successor 4 out of order"},
		{"unordered user list", func(g *Graph) { g.usersOf[0] = []TaskID{0, 2, 1, 3} }, "object 0: user list not strictly ordered"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := diamond()
			tc.mutate(g)
			ref := g.refValidate()
			got := g.Validate()
			if ref == nil || got == nil {
				t.Fatalf("accepted: Validate %v, reference %v", got, ref)
			}
			if got.Error() != tc.want || ref.Error() != tc.want {
				t.Fatalf("Validate %q, reference %q, want %q", got, ref, tc.want)
			}
		})
	}
}

// TestValidateRequiresAscendingLists: the Builder emits strictly
// ascending dep and succ lists, and Validate's binary search for each
// dep's successor edge relies on that, so it rejects lists the
// reference let through.
func TestValidateRequiresAscendingLists(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(g *Graph)
		want   string
	}{
		{"deps descending", func(g *Graph) { g.Tasks[3].deps = []TaskID{0, 2, 1} }, "task 3: dependence on 1 out of order"},
		{"deps repeated", func(g *Graph) { g.Tasks[3].deps = []TaskID{0, 1, 1, 2} }, "task 3: dependence on 1 out of order"},
		{"succs descending", func(g *Graph) { g.Tasks[0].succs = []TaskID{1, 3, 2} }, "task 0: successor 2 out of order"},
		{"succs repeated", func(g *Graph) { g.Tasks[1].succs = []TaskID{3, 3} }, "task 1: successor 3 out of order"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := diamond()
			tc.mutate(g)
			if err := g.refValidate(); err != nil {
				t.Fatalf("reference rejects: %v", err)
			}
			if err := g.Validate(); err == nil || err.Error() != tc.want {
				t.Fatalf("Validate = %v, want %q", err, tc.want)
			}
		})
	}
	if g := diamond(); !slices.Equal(g.Tasks[3].deps, []TaskID{0, 1, 2}) || !slices.Equal(g.Tasks[0].succs, []TaskID{1, 2, 3}) {
		t.Fatalf("diamond: sink deps %v, source succs %v", g.Tasks[3].deps, g.Tasks[0].succs)
	}
}
