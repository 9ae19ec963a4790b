// Package heap tracks where application data objects live on the
// heterogeneous memory system: which tier holds each object — or each
// chunk of a partitioned object — for any number of tiers ordered
// slowest to fastest (classically NVM and DRAM). It provides the
// user-level DRAM space service the runtime uses to ration the scarce
// fast tier, mirroring the paper's per-node service that coordinates
// DRAM allowance across processes without OS changes.
//
// Invariants: an object's partitioning is fixed at Reset, so every
// chunk has a stable dense global index in [0, TotalChunks) (objects in
// ID order, chunks in order within an object) that planners key bitsets
// and size tables off; each tier is a byte ledger whose resident count
// always equals the sum of chunk sizes on that tier and never exceeds
// its capacity (CheckInvariants rescans both); and residency is paged,
// so only capacity refuses a Move.
package heap

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/task"
)

// ChunkRef names one chunk of one object.
type ChunkRef struct {
	Obj   task.ObjectID
	Index int
}

// String formats the reference as "obj#3[2]".
func (c ChunkRef) String() string { return fmt.Sprintf("obj#%d[%d]", c.Obj, c.Index) }

// State is the placement map of every object (and chunk) plus one byte
// ledger per tier. All data starts on tier 0 (NVM), the paper's default
// initial placement; Move promotes or demotes one chunk at a time.
//
// The layout is struct-of-arrays: every per-chunk attribute lives in a
// flat array indexed by the dense global chunk index (objects in ID
// order, chunks in order within an object), so the planner's and
// migrator's hot queries — Tier, ChunkSize, TierFraction — are single
// contiguous loads. Per-(object, tier) resident bytes are maintained
// incrementally in integer accumulators, making TierFraction O(1);
// integer arithmetic keeps them bit-identical to a scan. The tests keep
// the earlier address-allocating layout as an oracle (state_ref_test.go)
// and compare the two over random move sequences.
type State struct {
	capacity []int64 // per-tier capacity, indexed by mem.Tier
	resident []int64 // per-tier resident application bytes
	nt       int

	// Per-chunk parallel arrays, indexed by global chunk index.
	chunkSize []int64
	chunkTier []mem.Tier

	// Per-object tables. objOn is nobj x nt: bytes of the object's
	// chunks resident on each tier. objSum is the chunk-size sum (it can
	// exceed objSize for degenerate splits of tiny objects).
	objSize []int64
	objSum  []int64
	objOn   []int64

	// Chunk index: the partitioning is fixed at Reset, so every chunk
	// gets a dense global index. Planners key bitsets and size tables
	// off it and enumerate an object's chunks from the precomputed refs
	// table without allocating.
	refsFlat []ChunkRef
	refs     [][]ChunkRef
	base     []int
	total    int
}

// Reset lays the graph's objects out on the HMS, all on tier 0, in s's
// buffers, and returns s: a reset State is indistinguishable from a new
// one, and one State reused across graphs stops allocating once its
// buffers have grown. chunksFor, if non-nil, gives the number of chunks
// to split an object into, indexed by object ID; a missing entry, a
// value < 2, or a non-chunkable object means "whole".
func (s *State) Reset(hms mem.HMS, objects []*task.Object, chunksFor []int) (*State, error) {
	if err := hms.Validate(); err != nil {
		return nil, err
	}
	nt, nobj := hms.NumTiers(), len(objects)
	s.nt = nt
	s.capacity = reuse(s.capacity, nt)
	s.resident = reuse(s.resident, nt)
	s.objSize = reuse(s.objSize, nobj)
	s.objSum = reuse(s.objSum, nobj)
	s.objOn = reuse(s.objOn, nobj*nt)
	for t := range s.capacity {
		s.capacity[t] = hms.Capacity(mem.Tier(t))
	}

	// First pass: fix the partitioning and build the dense index.
	s.base = reuse(s.base, nobj+1)
	for _, o := range objects {
		n := 1
		if int(o.ID) < len(chunksFor) && o.Chunkable {
			if c := chunksFor[o.ID]; c > 1 {
				n = c
			}
		}
		s.base[o.ID+1] = n
	}
	for i := 1; i < len(s.base); i++ {
		s.base[i] += s.base[i-1]
	}
	s.total = s.base[nobj]
	s.chunkSize = reuse(s.chunkSize, s.total)
	s.chunkTier = reuse(s.chunkTier, s.total)
	s.refsFlat = reuse(s.refsFlat, s.total)
	s.refs = reuse(s.refs, nobj)

	// Second pass: size each chunk and charge it to NVM.
	for _, o := range objects {
		lo, hi := s.base[o.ID], s.base[o.ID+1]
		n := int64(hi - lo)
		base := o.Size / n
		rem := o.Size - base*n
		s.objSize[o.ID] = o.Size
		for j := lo; j < hi; j++ {
			s.refsFlat[j] = ChunkRef{Obj: o.ID, Index: j - lo}
			sz := base
			if int64(j-lo) < rem {
				sz++
			}
			if sz == 0 {
				sz = 1 // degenerate: more chunks than bytes
			}
			if err := s.charge(mem.InNVM, sz); err != nil {
				return nil, fmt.Errorf("heap: placing %q in NVM: %w", o.Name, err)
			}
			s.chunkSize[j] = sz
			s.chunkTier[j] = mem.InNVM
			s.objSum[o.ID] += sz
			s.objOn[int(o.ID)*nt+int(mem.InNVM)] += sz
		}
		s.refs[o.ID] = s.refsFlat[lo:hi:hi]
	}
	return s, nil
}

// reuse returns b resized to n zeroed elements, in b's own array when
// that is large enough.
func reuse[T any](b []T, n int) []T {
	b = slices.Grow(b[:0], n)[:n]
	clear(b)
	return b
}

// Footprint returns the bytes s's buffers hold.
func (s *State) Footprint() int {
	return 8*(cap(s.capacity)+cap(s.resident)+cap(s.chunkSize)+cap(s.objSize)+
		cap(s.objSum)+cap(s.objOn)+cap(s.base)) +
		cap(s.chunkTier)*int(unsafe.Sizeof(mem.Tier(0))) +
		cap(s.refsFlat)*int(unsafe.Sizeof(ChunkRef{})) +
		cap(s.refs)*int(unsafe.Sizeof([]ChunkRef(nil)))
}

// Refs returns the object's chunk references in index order. The slice is
// precomputed and shared: callers must not mutate it.
func (s *State) Refs(obj task.ObjectID) []ChunkRef { return s.refs[obj] }

// TotalChunks returns the number of chunks across all objects.
func (s *State) TotalChunks() int { return s.total }

// ChunkIndex returns the chunk's dense global index in [0, TotalChunks).
// Objects are laid out in ID order, chunks in index order within each.
func (s *State) ChunkIndex(ref ChunkRef) int { return s.base[ref.Obj] + ref.Index }

// ChunkBase returns the global index of the object's first chunk.
func (s *State) ChunkBase(obj task.ObjectID) int { return s.base[obj] }

// RefAt is the inverse of ChunkIndex.
func (s *State) RefAt(ix int) ChunkRef { return s.refsFlat[ix] }

// Chunks returns how many chunks the object was split into.
func (s *State) Chunks(obj task.ObjectID) int { return s.base[obj+1] - s.base[obj] }

// ChunkSize returns the byte size of one chunk.
func (s *State) ChunkSize(ref ChunkRef) int64 { return s.chunkSize[s.base[ref.Obj]+ref.Index] }

// Tier returns where a chunk currently lives.
func (s *State) Tier(ref ChunkRef) mem.Tier { return s.chunkTier[s.base[ref.Obj]+ref.Index] }

// TierAt returns where the chunk with global index ix currently lives.
func (s *State) TierAt(ix int) mem.Tier { return s.chunkTier[ix] }

// NumTiers returns how many tiers the backing HMS has.
func (s *State) NumTiers() int { return s.nt }

// Fastest returns the fastest tier's id (InDRAM on two-tier machines).
func (s *State) Fastest() mem.Tier { return mem.Tier(s.nt - 1) }

// TierFraction returns the fraction of the object's bytes resident on
// tier t, from the O(1) per-(object, tier) accumulator. The timing model
// splits an object's traffic between the tiers in this proportion, which
// assumes accesses are uniform over the object — the same assumption the
// paper's chunk profiling refines.
func (s *State) TierFraction(obj task.ObjectID, t mem.Tier) float64 {
	return float64(s.objOn[int(obj)*s.nt+int(t)]) / float64(s.objSize[obj])
}

// DRAMUsed returns the fastest tier's resident bytes.
func (s *State) DRAMUsed() int64 { return s.resident[s.nt-1] }

// TierAvail returns any tier's free bytes.
func (s *State) TierAvail(t mem.Tier) int64 { return s.capacity[t] - s.resident[t] }

// CanMoveTo reports whether the chunk would fit on tier `to` right now.
// Residency is paged, so available bytes suffice.
func (s *State) CanMoveTo(ref ChunkRef, to mem.Tier) bool {
	ix := s.base[ref.Obj] + ref.Index
	return s.chunkTier[ix] == to || s.TierAvail(to) >= s.chunkSize[ix]
}

// charge adds size resident bytes to tier t, or refuses them when the
// tier lacks the room.
func (s *State) charge(t mem.Tier, size int64) error {
	if avail := s.TierAvail(t); avail < size {
		return fmt.Errorf("heap: need %d, avail %d", size, avail)
	}
	s.resident[t] += size
	return nil
}

// Move relocates a chunk to the given tier, updating the per-tier
// ledgers and the per-object residency table. Moving a chunk to its
// current tier is a no-op. The caller (the migration engine) is
// responsible for charging the copy's time.
func (s *State) Move(ref ChunkRef, to mem.Tier) error {
	ix := s.base[ref.Obj] + ref.Index
	from := s.chunkTier[ix]
	if from == to {
		return nil
	}
	size := s.chunkSize[ix]
	if err := s.charge(to, size); err != nil {
		return fmt.Errorf("heap: move %v to %v: %w", ref, to, err)
	}
	s.resident[from] -= size
	row := int(ref.Obj) * s.nt
	s.objOn[row+int(from)] -= size
	s.objOn[row+int(to)] += size
	s.chunkTier[ix] = to
	return nil
}

// ResidentBytes returns the bytes of application objects on a tier,
// from the O(1) per-tier accumulator.
func (s *State) ResidentBytes(t mem.Tier) int64 { return s.resident[t] }

// residentScan recomputes a tier's resident bytes from the chunk map,
// for invariant checking against the accumulator.
func (s *State) residentScan(t mem.Tier) int64 {
	var total int64
	for ix, tier := range s.chunkTier {
		if tier == t {
			total += s.chunkSize[ix]
		}
	}
	return total
}

// CheckInvariants rescans the chunk map against every tier's ledger and
// capacity and against the per-object residency tables. It allocates
// nothing unless it fails.
func (s *State) CheckInvariants() error {
	for t := range s.resident {
		tier := mem.Tier(t)
		scan := s.residentScan(tier)
		if scan != s.resident[t] {
			return fmt.Errorf("heap: %v resident %d != accumulator %d", tier, scan, s.resident[t])
		}
		if scan > s.capacity[t] {
			return fmt.Errorf("heap: %v resident %d exceeds capacity %d", tier, scan, s.capacity[t])
		}
	}
	for obj := 0; obj < len(s.objSize); obj++ {
		var sum int64
		var on [mem.MaxTiers]int64
		for ix := s.base[obj]; ix < s.base[obj+1]; ix++ {
			sum += s.chunkSize[ix]
			on[s.chunkTier[ix]] += s.chunkSize[ix]
		}
		if sum < s.objSize[obj] {
			return fmt.Errorf("heap: object %d chunks cover %d of %d bytes", obj, sum, s.objSize[obj])
		}
		if sum != s.objSum[obj] {
			return fmt.Errorf("heap: object %d chunk sum %d != accumulator %d", obj, sum, s.objSum[obj])
		}
		for t := 0; t < s.nt; t++ {
			if on[t] != s.objOn[obj*s.nt+t] {
				return fmt.Errorf("heap: object %d tier %d resident %d != accumulator %d",
					obj, t, on[t], s.objOn[obj*s.nt+t])
			}
		}
	}
	return nil
}
