package placement

import (
	"encoding/binary"
	"math"
)

// Solver runs Knapsack on reusable scratch. Solve and SolveTagged key
// each call by an exact canonical signature of its inputs and pay a map
// lookup on repeats instead of re-running the DP; AppendKnapsack skips
// the memo. Of the runtime's modeled charges only the adaptive-sampling
// query reads the memo (through Misses).
//
// The signature covers capacity, granularity, and every item's (Size,
// Float64bits(Weight)) in order. Item Refs are deliberately excluded: the
// DP's answer is a list of item *indices*, which depends only on the
// numeric inputs, never on which chunks the indices name. Because keys
// compare the exact weight bits, a hit returns bit-identical results to a
// cold DP by construction.
//
// A Solver is not safe for concurrent use; give each runner its own.
// The cache grows with the number of distinct candidate patterns seen,
// which a runner's fixed kind set keeps small.
type Solver struct {
	cache   map[string][]int
	key     []byte
	scratch knapScratch // reused DP working set; misses allocate only the result

	// Hits and Misses count Solve and SolveTagged outcomes.
	Hits, Misses int
}

// NewSolver returns an empty Solver.
func NewSolver() *Solver {
	return &Solver{cache: make(map[string][]int)}
}

// Solve returns Knapsack(items, capacity, gran), memoized. The returned
// slice is shared with the cache: callers must not mutate it.
func (s *Solver) Solve(items []Item, capacity, gran int64) []int {
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

// AppendKnapsack appends Knapsack(items, capacity, gran) to dst and
// returns the extended slice. It runs on the solver's scratch but not
// through the memo, so it neither reads nor fills the cache nor moves
// Hits and Misses; a caller that reuses dst allocates nothing.
func (s *Solver) AppendKnapsack(dst []int, items []Item, capacity, gran int64) []int {
	return s.scratch.solve(dst, items, capacity, gran)
}

// SolveTagged is Solve with an extra caller-chosen tag folded into the
// memo key. The multiple-choice tier cascade (AssignTiers) uses the tier
// id as the tag: each tier's stage sees items whose weights are that
// tier's benefits, and the tag keeps two tiers' coincidentally equal
// candidate patterns from aliasing each other's cached answers.
func (s *Solver) SolveTagged(tag uint64, items []Item, capacity, gran int64) []int {
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
func (s *Solver) Len() int { return len(s.cache) }
