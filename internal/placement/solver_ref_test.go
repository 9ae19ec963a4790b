package placement

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refSolver is the knapsack memo as it was before keys and results moved
// into hashed arenas: one map from the signature string to a freshly
// allocated result. Its methods below are that code verbatim. It is the
// oracle Solver must match call for call: same results, Hits, Misses and
// Len.
type refSolver struct {
	cache   map[string][]int
	key     []byte
	scratch knapScratch // reused DP working set; misses allocate only the result

	// Hits and Misses count Solve and SolveTagged outcomes.
	Hits, Misses int
}

// newRefSolver returns an empty refSolver.
func newRefSolver() *refSolver {
	return &refSolver{cache: make(map[string][]int)}
}

// Solve returns Knapsack(items, capacity, gran), memoized. The returned
// slice is shared with the cache: callers must not mutate it.
func (s *refSolver) Solve(items []Item, capacity, gran int64) []int {
	if s.cache == nil {
		s.cache = make(map[string][]int)
	}
	k := s.key[:0]
	k = binary.LittleEndian.AppendUint64(k, uint64(capacity))
	k = binary.LittleEndian.AppendUint64(k, uint64(gran))
	for _, it := range items {
		k = binary.LittleEndian.AppendUint64(k, uint64(it.Size))
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(it.Weight))
	}
	s.key = k
	if chosen, ok := s.cache[string(k)]; ok {
		s.Hits++
		return chosen
	}
	s.Misses++
	chosen := s.scratch.solve(nil, items, capacity, gran)
	s.cache[string(k)] = chosen
	return chosen
}

// SolveTagged is Solve with an extra caller-chosen tag folded into the
// memo key.
func (s *refSolver) SolveTagged(tag uint64, items []Item, capacity, gran int64) []int {
	if s.cache == nil {
		s.cache = make(map[string][]int)
	}
	k := s.key[:0]
	k = binary.LittleEndian.AppendUint64(k, ^tag) // distinct prefix space from Solve keys
	k = binary.LittleEndian.AppendUint64(k, uint64(capacity))
	k = binary.LittleEndian.AppendUint64(k, uint64(gran))
	for _, it := range items {
		k = binary.LittleEndian.AppendUint64(k, uint64(it.Size))
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(it.Weight))
	}
	s.key = k
	if chosen, ok := s.cache[string(k)]; ok {
		s.Hits++
		return chosen
	}
	s.Misses++
	chosen := s.scratch.solve(nil, items, capacity, gran)
	s.cache[string(k)] = chosen
	return chosen
}

// Len returns the number of cached solutions.
func (s *refSolver) Len() int { return len(s.cache) }

// memoPool is the fixed set of instances the memo checks draw from, so a
// short op sequence repeats patterns often. Weights span negative, zero
// and positive; capacities make some instances all-fit and others bind.
var memoPool = func() [][]Item {
	rng := rand.New(rand.NewSource(1))
	pool := make([][]Item, 8)
	for i := range pool {
		items := make([]Item, rng.Intn(10))
		for j := range items {
			items[j] = item(j, int64(rng.Intn(60)+1), float64(rng.Intn(90)-20)/7)
		}
		pool[i] = items
	}
	return pool
}()

// checkSolverMemo drives one op sequence through Solver and refSolver.
// Each op reads four bytes: the call (Solve, SolveTagged under one of
// four tags, or Reset), the pool instance, a capacity variant, and an
// optional one-ULP weight change. After every call the results, Hits,
// Misses and Len must agree, and every result handed out since the last
// Reset must still read as the oracle's.
func checkSolverMemo(t *testing.T, data []byte) {
	t.Helper()
	got, want := NewSolver(), newRefSolver()
	var gotRes, wantRes [][]int
	checkHeld := func() {
		for i := range gotRes {
			if !slices.Equal(gotRes[i], wantRes[i]) {
				t.Fatalf("result %d since the last Reset now reads %v, oracle %v", i, gotRes[i], wantRes[i])
			}
		}
	}
	for ; len(data) >= 4; data = data[4:] {
		op, inst, capv, ulp := data[0], data[1], data[2], data[3]
		if op%5 == 4 {
			checkHeld()
			got.Reset()
			want = newRefSolver()
			gotRes, wantRes = gotRes[:0], wantRes[:0]
			continue
		}
		items := slices.Clone(memoPool[int(inst)%len(memoPool)])
		if len(items) > 0 && ulp%4 == 0 {
			w := &items[int(ulp>>2)%len(items)].Weight
			*w = math.Nextafter(*w, math.Inf(1))
		}
		capacity := []int64{100, 101, 37, 0}[capv%4]
		gran := int64(capv>>2%3) + 1
		var g, w []int
		if op%5 < 2 {
			g, w = got.Solve(items, capacity, gran), want.Solve(items, capacity, gran)
		} else {
			tag := uint64(op >> 3 % 4)
			g, w = got.SolveTagged(tag, items, capacity, gran), want.SolveTagged(tag, items, capacity, gran)
		}
		if !slices.Equal(g, w) || (g == nil) != (w == nil) {
			t.Fatalf("op %d on instance %d: result %v, oracle %v", op, inst, g, w)
		}
		if got.Hits != want.Hits || got.Misses != want.Misses || got.Len() != want.Len() {
			t.Fatalf("op %d on instance %d: hits/misses/len %d/%d/%d, oracle %d/%d/%d",
				op, inst, got.Hits, got.Misses, got.Len(), want.Hits, want.Misses, want.Len())
		}
		gotRes, wantRes = append(gotRes, g), append(wantRes, w)
	}
	checkHeld()
}

// TestSolverMatchesReference runs random op sequences through both memos.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4*200)
	for n := 0; n < 300; n++ {
		rng.Read(data)
		checkSolverMemo(t, data[:4*rng.Intn(201)])
	}
}

// FuzzSolverMemo checks the hashed memo against the map-keyed oracle on
// arbitrary Solve, SolveTagged and Reset sequences.
func FuzzSolverMemo(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 2, 1, 0, 1, 10, 1, 0, 1, 4, 0, 0, 0, 0, 1, 0, 1})
	f.Fuzz(checkSolverMemo)
}
