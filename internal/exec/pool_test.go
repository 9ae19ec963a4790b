package exec

import (
	"sync/atomic"
	"testing"

	"repro/internal/task"
)

// buildChain returns a graph of n tasks that each append their ID to a
// shared slice; dependences force strict serial order.
func buildChain(n int, out *[]int) *task.Graph {
	b := task.NewBuilder("chain")
	obj := b.Object("acc", 64)
	for i := 0; i < n; i++ {
		i := i
		b.Submit("step", 0, []task.Access{{Obj: obj, Mode: task.InOut, Loads: 1, Stores: 1, MLP: 1}},
			func() { *out = append(*out, i) })
	}
	return b.Build()
}

func TestSerialChainOrder(t *testing.T) {
	var out []int
	g := buildChain(50, &out)
	if err := NewPool(8).Run(g); err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("ran %d tasks", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("chain executed out of order at %d: %v", i, out[:i+1])
		}
	}
}

func TestIndependentTasksAllRun(t *testing.T) {
	b := task.NewBuilder("indep")
	var count int64
	for i := 0; i < 200; i++ {
		obj := b.Object("o", 64)
		b.Submit("inc", 0, []task.Access{{Obj: obj, Mode: Out, Stores: 1, MLP: 1}},
			func() { atomic.AddInt64(&count, 1) })
	}
	g := b.Build()
	if err := NewPool(8).Run(g); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("ran %d of 200", count)
	}
}

// Out is a local alias so the helper above reads naturally.
const Out = task.Out

func TestForkJoin(t *testing.T) {
	// One producer, 64 parallel consumers, one reducer: the reducer must
	// observe all consumer effects.
	b := task.NewBuilder("forkjoin")
	src := b.Object("src", 64)
	var partial [64]int64
	var total int64
	b.Submit("produce", 0, []task.Access{{Obj: src, Mode: task.Out, Stores: 1, MLP: 1}}, nil)
	sinks := make([]task.ObjectID, 64)
	for i := 0; i < 64; i++ {
		i := i
		sinks[i] = b.Object("sink", 64)
		b.Submit("consume", 0, []task.Access{
			{Obj: src, Mode: task.In, Loads: 1, MLP: 1},
			{Obj: sinks[i], Mode: task.Out, Stores: 1, MLP: 1},
		}, func() { partial[i] = int64(i) })
	}
	redAcc := make([]task.Access, 0, 65)
	for _, s := range sinks {
		redAcc = append(redAcc, task.Access{Obj: s, Mode: task.In, Loads: 1, MLP: 1})
	}
	b.Submit("reduce", 0, redAcc, func() {
		for _, p := range partial {
			total += p
		}
	})
	g := b.Build()
	if err := NewPool(4).Run(g); err != nil {
		t.Fatal(err)
	}
	if total != 64*63/2 {
		t.Fatalf("reduction = %d, want %d", total, 64*63/2)
	}
}

func TestSingleWorker(t *testing.T) {
	var out []int
	g := buildChain(10, &out)
	if err := NewPool(1).Run(g); err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("ran %d tasks", len(out))
	}
}

func TestZeroWorkerClamped(t *testing.T) {
	var out []int
	g := buildChain(3, &out)
	if err := NewPool(0).Run(g); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatal("clamped pool did not run")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := task.NewBuilder("empty").Build()
	if err := NewPool(4).Run(g); err != nil {
		t.Fatal(err)
	}
}

func TestNilRunsAreNoOps(t *testing.T) {
	b := task.NewBuilder("nil")
	o := b.Object("o", 64)
	b.Submit("a", 0, []task.Access{{Obj: o, Mode: task.Out, Stores: 1, MLP: 1}}, nil)
	b.Submit("b", 0, []task.Access{{Obj: o, Mode: task.In, Loads: 1, MLP: 1}}, nil)
	if err := NewPool(2).Run(b.Build()); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidGraphRejected(t *testing.T) {
	g := &task.Graph{
		Tasks: []*task.Task{{ID: 5}}, // non-dense ID
	}
	if err := NewPool(2).Run(g); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

// TestManyRandomDiamonds stresses the pool with a wide irregular graph
// under the race detector (go test -race).
func TestManyRandomDiamonds(t *testing.T) {
	b := task.NewBuilder("stress")
	var sum int64
	objs := make([]task.ObjectID, 32)
	for i := range objs {
		objs[i] = b.Object("o", 64)
	}
	for round := 0; round < 30; round++ {
		for i := range objs {
			mode := task.InOut
			if (round+i)%3 == 0 {
				mode = task.In
			}
			acc := []task.Access{{Obj: objs[i], Mode: mode, Loads: 1, Stores: 1, MLP: 1}}
			if i > 0 {
				acc = append(acc, task.Access{Obj: objs[i-1], Mode: task.In, Loads: 1, MLP: 1})
			}
			b.Submit("t", 0, acc, func() { atomic.AddInt64(&sum, 1) })
		}
	}
	g := b.Build()
	if err := NewPool(8).Run(g); err != nil {
		t.Fatal(err)
	}
	if sum != 30*32 {
		t.Fatalf("ran %d of %d", sum, 30*32)
	}
}
