package placement

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"unsafe"
)

// Solver runs Knapsack on reusable scratch. Solve and SolveTagged key
// each call by an exact canonical signature of its inputs and pay a
// lookup on repeats instead of re-running the DP; AppendKnapsack skips
// the memo. Of the runtime's modeled charges only the adaptive-sampling
// query reads the memo (through Misses).
//
// The signature covers capacity, granularity, and every item's (Size,
// Float64bits(Weight)) in order. Item Refs are deliberately excluded: the
// DP's answer is a list of item *indices*, which depends only on the
// numeric inputs, never on which chunks the indices name. A lookup
// hashes the signature bytes and then compares them exactly against the
// stored key, so a hit returns bit-identical results to a cold DP by
// construction, and Hits and Misses count exactly what a map keyed by
// the signature would (solver_ref_test.go keeps that map as the oracle).
//
// Keys and results live in two flat arenas, so a miss appends to them
// instead of allocating a key string and a result slice, and Reset
// empties the memo while keeping every buffer for the next run.
//
// A Solver is not safe for concurrent use; give each runner its own.
// The memo grows with the number of distinct candidate patterns seen,
// which a runner's fixed kind set keeps small.
type Solver struct {
	// index maps a signature's hash to its newest memo entry; entries
	// whose signatures share a hash chain through memoEntry.next.
	index   map[uint64]int
	entries []memoEntry
	keys    []byte // the entries' signatures, back to back
	results []int  // the entries' chosen indices, back to back
	key     []byte // the signature being looked up
	scratch knapScratch
	tiers   tierScratch

	// Hits and Misses count Solve and SolveTagged outcomes.
	Hits, Misses int
}

// memoEntry locates one memoized call: its signature is keys[keyLo:keyHi]
// and its result results[resLo:resHi].
type memoEntry struct {
	keyLo, keyHi, resLo, resHi int
	next                       int // older entry with the same hash, or -1
}

// memoSeed hashes every Solver's signatures. Hash values never reach a
// result: lookups compare the signature bytes exactly.
var memoSeed = maphash.MakeSeed()

// NewSolver returns an empty Solver.
func NewSolver() *Solver { return new(Solver).Reset() }

// Reset empties the memo and zeroes Hits and Misses, keeping the DP and
// tier scratch, the arenas and the index's storage for reuse, and
// returns s.
func (s *Solver) Reset() *Solver {
	clear(s.index)
	s.entries, s.keys, s.results = s.entries[:0], s.keys[:0], s.results[:0]
	s.Hits, s.Misses = 0, 0
	return s
}

// Footprint returns the bytes s's reusable buffers hold, counting each
// index slot at the size of its key and value.
func (s *Solver) Footprint() int {
	sc, ts := &s.scratch, &s.tiers
	return cap(s.entries)*int(unsafe.Sizeof(memoEntry{})+16) + cap(s.keys) + cap(s.key) +
		8*(cap(s.results)+cap(sc.best)+cap(ts.assign)+cap(ts.remaining)) + cap(sc.taken) +
		cap(sc.cands)*int(unsafe.Sizeof(knapCand{})) + cap(sc.rows)*int(unsafe.Sizeof(knapRow{})) +
		cap(ts.stage)*int(unsafe.Sizeof(Item{}))
}

// Solve returns Knapsack(items, capacity, gran), memoized. The returned
// slice is shared with the memo until the next Reset: callers must not
// mutate it.
func (s *Solver) Solve(items []Item, capacity, gran int64) []int {
	return s.memo(s.key[:0], items, capacity, gran)
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
	k := binary.LittleEndian.AppendUint64(s.key[:0], ^tag) // distinct prefix space from Solve keys
	return s.memo(k, items, capacity, gran)
}

// memo appends the call's signature to prefix, then returns the stored
// result of an identical signature or solves and stores a new one.
func (s *Solver) memo(prefix []byte, items []Item, capacity, gran int64) []int {
	k := binary.LittleEndian.AppendUint64(prefix, uint64(capacity))
	k = binary.LittleEndian.AppendUint64(k, uint64(gran))
	for _, it := range items {
		k = binary.LittleEndian.AppendUint64(k, uint64(it.Size))
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(it.Weight))
	}
	s.key = k
	h := maphash.Bytes(memoSeed, k)
	head, ok := s.index[h]
	if ok {
		for i := head; i >= 0; i = s.entries[i].next {
			if e := &s.entries[i]; bytes.Equal(s.keys[e.keyLo:e.keyHi], k) {
				s.Hits++
				return s.result(*e)
			}
		}
	} else {
		head = -1
	}
	s.Misses++
	if s.index == nil {
		s.index = make(map[uint64]int)
	}
	e := memoEntry{keyLo: len(s.keys), resLo: len(s.results), next: head}
	s.results = s.scratch.solve(s.results, items, capacity, gran)
	s.keys = append(s.keys, k...)
	e.keyHi, e.resHi = len(s.keys), len(s.results)
	s.index[h] = len(s.entries)
	s.entries = append(s.entries, e)
	return s.result(e)
}

// result returns an entry's chosen indices, nil when it chose nothing.
func (s *Solver) result(e memoEntry) []int {
	if e.resLo == e.resHi {
		return nil
	}
	return s.results[e.resLo:e.resHi:e.resHi]
}

// Len returns the number of cached solutions.
func (s *Solver) Len() int { return len(s.entries) }
