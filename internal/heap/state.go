package heap

import (
	"fmt"

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

// alloc is one physical piece backing part of a chunk.
type alloc struct {
	off, size int64
}

// State is the placement map of every object (and chunk) plus one
// allocator per tier. All data starts on tier 0 (NVM), the paper's
// default initial placement; Move promotes or demotes one chunk at a
// time.
//
// The layout is struct-of-arrays: every per-chunk attribute lives in a
// flat array indexed by the dense global chunk index (objects in ID
// order, chunks in order within an object), so the planner's and
// migrator's hot queries — Tier, ChunkSize, TierFraction — are single
// contiguous loads instead of objState→chunkState pointer chases.
// Per-(object, tier) resident bytes are maintained incrementally in
// integer accumulators, making TierFraction O(1); integer
// arithmetic keeps them bit-identical to a scan. The retained
// reference layout (state_ref.go) can shadow every mutation via
// ShadowCheck and cross-checks the two representations observable by
// observable.
type State struct {
	tiers    []*FreeList // indexed by mem.Tier, slowest to fastest
	resident []int64     // per-tier resident application bytes
	nt       int

	// Per-chunk parallel arrays, indexed by global chunk index.
	chunkSize []int64
	chunkTier []mem.Tier
	pieces    [][]alloc // physical pieces backing each chunk

	// Per-object tables. objOn is nobj x nt: bytes of the object's
	// chunks resident on each tier. objSum is the chunk-size sum (it can
	// exceed objSize for degenerate splits of tiny objects).
	objSize []int64
	objSum  []int64
	objOn   []int64

	// Chunk index: the partitioning is fixed at NewState, so every chunk
	// gets a dense global index. Planners key bitsets and size tables
	// off it and enumerate an object's chunks from the precomputed refs
	// table without allocating.
	refsFlat []ChunkRef
	refs     [][]ChunkRef
	base     []int
	total    int

	// moveScratch is the reusable piece buffer for Move.
	moveScratch []alloc

	// shadow is the reference-layout mirror, nil unless ShadowCheck was
	// set when the state was built.
	shadow *refState
}

// NewState lays out the graph's objects on the HMS, all on tier 0.
// chunksFor, if non-nil, gives the number of chunks to split an object
// into (values < 2, or entries for non-chunkable objects, mean "whole").
func NewState(hms mem.HMS, objects []*task.Object, chunksFor map[task.ObjectID]int) (*State, error) {
	if err := hms.Validate(); err != nil {
		return nil, err
	}
	nt := hms.NumTiers()
	s := &State{
		tiers:    make([]*FreeList, nt),
		resident: make([]int64, nt),
		nt:       nt,
		objSize:  make([]int64, len(objects)),
		objSum:   make([]int64, len(objects)),
		objOn:    make([]int64, len(objects)*nt),
	}
	for t := range s.tiers {
		s.tiers[t] = NewFreeList(hms.Capacity(mem.Tier(t)))
	}

	// First pass: fix the partitioning and build the dense index.
	s.base = make([]int, len(objects)+1)
	for _, o := range objects {
		n := 1
		if chunksFor != nil && o.Chunkable {
			if c := chunksFor[o.ID]; c > 1 {
				n = c
			}
		}
		s.base[o.ID+1] = n
	}
	for i := 1; i < len(s.base); i++ {
		s.base[i] += s.base[i-1]
	}
	s.total = s.base[len(objects)]
	s.chunkSize = make([]int64, s.total)
	s.chunkTier = make([]mem.Tier, s.total)
	s.pieces = make([][]alloc, s.total)
	s.refsFlat = make([]ChunkRef, s.total)
	s.refs = make([][]ChunkRef, len(objects))

	// Second pass: size each chunk and back it in NVM. The initial
	// pieces all come from one shared arena slab, carved in index order:
	// a fresh free list hands out maximal pieces, so each chunk takes at
	// most ceil(size/allocPiece) of them (and at least one).
	arenaCap := 0
	for _, o := range objects {
		lo, hi := s.base[o.ID], s.base[o.ID+1]
		per := int((o.Size/int64(hi-lo) + allocPiece) / allocPiece)
		if per < 1 {
			per = 1
		}
		arenaCap += per * (hi - lo)
	}
	arena := make([]alloc, 0, arenaCap)
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
			mark := len(arena)
			var err error
			arena, err = allocFragmentedInto(arena, s.tiers[mem.InNVM], sz)
			if err != nil {
				return nil, fmt.Errorf("heap: placing %q in NVM: %w", o.Name, err)
			}
			s.chunkSize[j] = sz
			s.chunkTier[j] = mem.InNVM
			s.pieces[j] = arena[mark:len(arena):len(arena)]
			s.resident[mem.InNVM] += sz
			s.objSum[o.ID] += sz
			s.objOn[int(o.ID)*nt+int(mem.InNVM)] += sz
		}
		s.refs[o.ID] = s.refsFlat[lo:hi:hi]
	}

	if ShadowCheck {
		shadow, err := newRefState(hms, objects, chunksFor)
		if err != nil {
			return nil, fmt.Errorf("heap: shadow build diverged: %w", err)
		}
		s.shadow = shadow
		if err := s.shadow.verify(s); err != nil {
			return nil, fmt.Errorf("heap: shadow diverged at build: %w", err)
		}
	}
	return s, nil
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

// DRAMUsed exposes the fastest tier's accounting.
func (s *State) DRAMUsed() int64 { return s.tiers[s.Fastest()].Used() }

// TierAvail exposes any tier's free bytes.
func (s *State) TierAvail(t mem.Tier) int64 { return s.tiers[t].Avail() }

// CanMoveTo reports whether the chunk would fit on tier `to` right now.
// Allocation is fragmented (paged), so available bytes suffice.
func (s *State) CanMoveTo(ref ChunkRef, to mem.Tier) bool {
	ix := s.base[ref.Obj] + ref.Index
	return s.chunkTier[ix] == to || s.tiers[to].Avail() >= s.chunkSize[ix]
}

// allocPiece is the preferred physical piece size (a 2 MB superpage):
// allocation requests split into pieces, falling back to whatever runs
// remain, so capacity — not fragmentation — is the only limit.
const allocPiece = 2 << 20

// allocFragmentedInto backs size bytes with pieces from f, appending
// them to out (which may carry reusable capacity). On error the newly
// allocated pieces are freed and the original prefix of out is
// returned.
func allocFragmentedInto(out []alloc, f *FreeList, size int64) ([]alloc, error) {
	if f.Avail() < size {
		return out, fmt.Errorf("heap: need %d, avail %d", size, f.Avail())
	}
	mark := len(out)
	unwind := func() {
		for _, a := range out[mark:] {
			_ = f.Free(a.off, a.size)
		}
	}
	remaining := size
	for remaining > 0 {
		piece := int64(allocPiece)
		if remaining < piece {
			piece = remaining
		}
		if l := f.Largest(); l < piece {
			piece = l
		}
		if piece <= 0 {
			unwind()
			return out[:mark], fmt.Errorf("heap: allocator exhausted with %d bytes unbacked", remaining)
		}
		off, err := f.Alloc(piece)
		if err != nil {
			unwind()
			return out[:mark], err
		}
		out = append(out, alloc{off, piece})
		remaining -= piece
	}
	return out, nil
}

// allocFragmented backs size bytes with pieces from f.
func allocFragmented(f *FreeList, size int64) ([]alloc, error) {
	out, err := allocFragmentedInto(nil, f, size)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Move relocates a chunk to the given tier, updating both allocators
// and the per-tier resident accumulators. Moving a chunk to its current
// tier is a no-op. The caller (the migration engine) is responsible for
// charging the copy's time.
func (s *State) Move(ref ChunkRef, to mem.Tier) error {
	ix := s.base[ref.Obj] + ref.Index
	from := s.chunkTier[ix]
	if from == to {
		return nil
	}
	size := s.chunkSize[ix]
	src, dst := s.tiers[from], s.tiers[to]
	scratch, err := allocFragmentedInto(s.moveScratch[:0], dst, size)
	if err != nil {
		s.moveScratch = scratch[:0]
		return fmt.Errorf("heap: move %v to %v: %w", ref, to, err)
	}
	for _, a := range s.pieces[ix] {
		if err := src.Free(a.off, a.size); err != nil {
			s.moveScratch = scratch[:0]
			return fmt.Errorf("heap: move %v released bad source range: %w", ref, err)
		}
	}
	s.resident[from] -= size
	s.resident[to] += size
	row := int(ref.Obj) * s.nt
	s.objOn[row+int(from)] -= size
	s.objOn[row+int(to)] += size
	s.chunkTier[ix] = to
	// Keep the chunk's piece list in place when its capacity suffices;
	// the scratch buffer keeps its capacity either way.
	if cap(s.pieces[ix]) >= len(scratch) {
		s.pieces[ix] = s.pieces[ix][:len(scratch)]
		copy(s.pieces[ix], scratch)
	} else {
		s.pieces[ix] = append([]alloc(nil), scratch...)
	}
	s.moveScratch = scratch[:0]

	if s.shadow != nil {
		if err := s.shadow.move(ref, to); err != nil {
			return fmt.Errorf("heap: shadow move diverged: %w", err)
		}
		if err := s.shadow.verify(s); err != nil {
			return fmt.Errorf("heap: shadow diverged after move %v->%v: %w", ref, to, err)
		}
	}
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

// CheckInvariants cross-checks chunk accounting against every tier's
// allocator, the resident-byte accumulators, and the per-object
// residency tables (and, when shadowing, the reference layout).
func (s *State) CheckInvariants() error {
	for t, fl := range s.tiers {
		if err := fl.CheckInvariants(); err != nil {
			return err
		}
		tier := mem.Tier(t)
		scan := s.residentScan(tier)
		if scan != fl.Used() {
			return fmt.Errorf("heap: %v resident %d != allocator used %d", tier, scan, fl.Used())
		}
		if scan != s.resident[t] {
			return fmt.Errorf("heap: %v resident %d != accumulator %d", tier, scan, s.resident[t])
		}
	}
	for obj := 0; obj < len(s.objSize); obj++ {
		var sum int64
		on := make([]int64, s.nt)
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
	if s.shadow != nil {
		if err := s.shadow.verify(s); err != nil {
			return fmt.Errorf("heap: shadow diverged: %w", err)
		}
	}
	return nil
}
