package placement

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/heap"
	"repro/internal/task"
)

func randTierItems(rng *rand.Rand, n, nt int) []TierItem {
	items := make([]TierItem, n)
	for i := range items {
		w := make([]float64, nt)
		for t := 1; t < nt; t++ {
			w[t] = rng.Float64()*2 - 0.5 // some negative
		}
		items[i] = TierItem{
			Ref:    heap.ChunkRef{Obj: task.ObjectID(i)},
			Size:   int64(rng.Intn(16)+1) << 20,
			Weight: w,
		}
	}
	return items
}

// With two tiers the cascade degenerates to exactly one Knapsack call
// over Weight[1]: same membership, whatever the soup.
func TestAssignTiersTwoTierMatchesKnapsack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		items := randTierItems(rng, rng.Intn(12)+1, 2)
		capacity := int64(rng.Intn(64)+1) << 20
		caps := []int64{1 << 44, capacity}

		assign := AssignTiers(nil, items, caps, DefaultGranularity)

		flat := make([]Item, len(items))
		for i, it := range items {
			flat[i] = Item{Ref: it.Ref, Size: it.Size, Weight: it.Weight[1]}
		}
		chosen := Knapsack(flat, capacity, DefaultGranularity)
		want := make([]int, len(items))
		for _, i := range chosen {
			want[i] = 1
		}
		if !reflect.DeepEqual(assign, want) {
			t.Fatalf("trial %d: assign %v != knapsack %v", trial, assign, want)
		}
	}
}

// The memoized path must agree with the cold path and hit its cache on
// repeats — including across tiers with identical candidate patterns,
// which the tag keeps apart.
func TestAssignTiersSolverAgreesAndMemoizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSolver()
	items := randTierItems(rng, 10, 3)
	caps := []int64{1 << 44, 64 << 20, 32 << 20}

	cold := AssignTiers(nil, items, caps, DefaultGranularity)
	// The solver path returns its scratch, which the next call reuses.
	warm1 := slices.Clone(AssignTiers(s, items, caps, DefaultGranularity))
	if !reflect.DeepEqual(cold, warm1) {
		t.Fatalf("solver path %v != cold path %v", warm1, cold)
	}
	misses := s.Misses
	warm2 := AssignTiers(s, items, caps, DefaultGranularity)
	if !reflect.DeepEqual(warm1, warm2) {
		t.Fatalf("repeat solve changed the answer")
	}
	if s.Misses != misses {
		t.Errorf("repeat solve missed the cache (%d -> %d misses)", misses, s.Misses)
	}
	if s.Hits == 0 {
		t.Errorf("repeat solve recorded no cache hits")
	}
}

// A warm Solver runs the tier cascade in its own scratch: repeating a
// three-tier assignment allocates nothing.
func TestAssignTiersWarmSolverAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSolver()
	items := randTierItems(rng, 20, 3)
	caps := []int64{1 << 44, 64 << 20, 32 << 20}
	AssignTiers(s, items, caps, DefaultGranularity)
	if n := testing.AllocsPerRun(10, func() { AssignTiers(s, items, caps, DefaultGranularity) }); n != 0 {
		t.Fatalf("%v allocs per warm AssignTiers, want 0", n)
	}
}

// SolveTagged with different tags must not alias, even over identical
// items and capacities.
func TestSolveTaggedTagSeparation(t *testing.T) {
	s := NewSolver()
	items := []Item{
		{Ref: heap.ChunkRef{Obj: 0}, Size: 1 << 20, Weight: 1},
		{Ref: heap.ChunkRef{Obj: 1}, Size: 1 << 20, Weight: 2},
	}
	a := s.SolveTagged(1, items, 2<<20, DefaultGranularity)
	misses := s.Misses
	b := s.SolveTagged(2, items, 2<<20, DefaultGranularity)
	if s.Misses == misses {
		t.Fatalf("distinct tags shared a cache entry")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different answers: %v vs %v", a, b)
	}
	if got := s.SolveTagged(1, items, 2<<20, DefaultGranularity); !reflect.DeepEqual(got, a) {
		t.Fatalf("tag-1 repeat differs")
	}
}

// Three-tier feasibility: every assignment respects its tier's capacity,
// items are assigned exactly one tier, and the fastest tier is filled
// before the middle sees the leftovers.
func TestAssignTiersThreeTierFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		nt := 3
		items := randTierItems(rng, rng.Intn(20)+1, nt)
		caps := []int64{1 << 44, int64(rng.Intn(48)+1) << 20, int64(rng.Intn(48)+1) << 20}
		assign := AssignTiers(NewSolver(), items, caps, DefaultGranularity)
		if len(assign) != len(items) {
			t.Fatalf("assign length %d != items %d", len(assign), len(items))
		}
		used := TierUsedBytes(items, assign, nt)
		for tier := 1; tier < nt; tier++ {
			if used[tier] > caps[tier] {
				t.Fatalf("trial %d: tier %d used %d > cap %d", trial, tier, used[tier], caps[tier])
			}
		}
		for i, a := range assign {
			if a < 0 || a >= nt {
				t.Fatalf("trial %d: item %d assigned out-of-range tier %d", trial, i, a)
			}
		}
	}
}

// Determinism: the cascade's answer is a pure function of its inputs.
func TestAssignTiersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	items := randTierItems(rng, 15, 3)
	caps := []int64{1 << 44, 40 << 20, 24 << 20}
	want := AssignTiers(NewSolver(), items, caps, DefaultGranularity)
	for i := 0; i < 10; i++ {
		if got := AssignTiers(NewSolver(), items, caps, DefaultGranularity); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs: %v vs %v", i, got, want)
		}
	}
}
