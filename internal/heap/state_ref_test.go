package heap

import (
	"fmt"
	"sort"

	"repro/internal/mem"
	"repro/internal/task"
)

// This file is the oracle for State's byte ledgers: the earlier layout
// that backed every chunk with physical pieces from a first-fit address
// allocator per tier. Nothing reads those addresses (a move fails only
// on capacity), so production keeps only the byte counts; the tests
// replay the same builds and moves through this layout and compare the
// allocators' used and available bytes, chunk by chunk and tier by
// tier, against the ledgers (refState.verify).

// span is a contiguous free address range [off, off+size).
type span struct {
	off, size int64
}

// FreeList is a first-fit address-space allocator with eager coalescing.
// It stands in for the simple user-level allocator the paper's runtime
// uses for the DRAM tier: data movement is deliberately infrequent, so
// allocation speed matters less than a fragmentation-free accounting of
// the scarce space.
type FreeList struct {
	capacity int64
	used     int64
	free     []span // sorted by offset, pairwise non-adjacent
}

// NewFreeList returns an allocator over [0, capacity).
func NewFreeList(capacity int64) *FreeList {
	if capacity < 0 {
		panic(fmt.Sprintf("heap: negative capacity %d", capacity))
	}
	f := &FreeList{capacity: capacity}
	if capacity > 0 {
		f.free = []span{{0, capacity}}
	}
	return f
}

// Capacity returns the total managed bytes.
func (f *FreeList) Capacity() int64 { return f.capacity }

// Used returns the currently allocated bytes.
func (f *FreeList) Used() int64 { return f.used }

// Avail returns the free bytes (which may be fragmented).
func (f *FreeList) Avail() int64 { return f.capacity - f.used }

// Largest returns the size of the largest contiguous free range.
func (f *FreeList) Largest() int64 {
	var max int64
	for _, s := range f.free {
		if s.size > max {
			max = s.size
		}
	}
	return max
}

// Alloc reserves size bytes first-fit and returns the offset.
func (f *FreeList) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("heap: alloc of non-positive size %d", size)
	}
	for i := range f.free {
		if f.free[i].size >= size {
			off := f.free[i].off
			f.free[i].off += size
			f.free[i].size -= size
			if f.free[i].size == 0 {
				f.free = append(f.free[:i], f.free[i+1:]...)
			}
			f.used += size
			return off, nil
		}
	}
	return 0, fmt.Errorf("heap: out of space: need %d, avail %d (largest run %d)",
		size, f.Avail(), f.Largest())
}

// Free returns [off, off+size) to the allocator, coalescing with
// neighbours. Freeing a range that overlaps free space is an error.
func (f *FreeList) Free(off, size int64) error {
	if size <= 0 || off < 0 || off+size > f.capacity {
		return fmt.Errorf("heap: free of invalid range [%d,%d)", off, off+size)
	}
	i := sort.Search(len(f.free), func(i int) bool { return f.free[i].off >= off })
	if i < len(f.free) && f.free[i].off < off+size {
		return fmt.Errorf("heap: double free at [%d,%d)", off, off+size)
	}
	if i > 0 && f.free[i-1].off+f.free[i-1].size > off {
		return fmt.Errorf("heap: double free at [%d,%d)", off, off+size)
	}
	// Insert, then coalesce with predecessor and successor.
	f.free = append(f.free, span{})
	copy(f.free[i+1:], f.free[i:])
	f.free[i] = span{off, size}
	if i+1 < len(f.free) && f.free[i].off+f.free[i].size == f.free[i+1].off {
		f.free[i].size += f.free[i+1].size
		f.free = append(f.free[:i+1], f.free[i+2:]...)
	}
	if i > 0 && f.free[i-1].off+f.free[i-1].size == f.free[i].off {
		f.free[i-1].size += f.free[i].size
		f.free = append(f.free[:i], f.free[i+1:]...)
	}
	f.used -= size
	return nil
}

// CheckInvariants verifies the free list is sorted, in-bounds,
// non-overlapping, fully coalesced, and consistent with Used().
func (f *FreeList) CheckInvariants() error {
	var total int64
	for i, s := range f.free {
		if s.size <= 0 {
			return fmt.Errorf("heap: empty free span at %d", i)
		}
		if s.off < 0 || s.off+s.size > f.capacity {
			return fmt.Errorf("heap: free span [%d,%d) out of bounds", s.off, s.off+s.size)
		}
		if i > 0 {
			prev := f.free[i-1]
			if prev.off+prev.size > s.off {
				return fmt.Errorf("heap: overlapping free spans")
			}
			if prev.off+prev.size == s.off {
				return fmt.Errorf("heap: uncoalesced free spans at %d", s.off)
			}
		}
		total += s.size
	}
	if total != f.capacity-f.used {
		return fmt.Errorf("heap: free bytes %d != capacity-used %d", total, f.capacity-f.used)
	}
	return nil
}

// alloc is one physical piece backing part of a chunk.
type alloc struct {
	off, size int64
}

// allocPiece is the preferred physical piece size (a 2 MB superpage):
// allocation requests split into pieces, falling back to whatever runs
// remain, so capacity — not fragmentation — is the only limit.
const allocPiece = 2 << 20

// allocFragmented backs size bytes with pieces from f. On error the
// pieces it took are freed again.
func allocFragmented(f *FreeList, size int64) ([]alloc, error) {
	if f.Avail() < size {
		return nil, fmt.Errorf("heap: need %d, avail %d", size, f.Avail())
	}
	var out []alloc
	unwind := func() {
		for _, a := range out {
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
			return nil, fmt.Errorf("heap: allocator exhausted with %d bytes unbacked", remaining)
		}
		off, err := f.Alloc(piece)
		if err != nil {
			unwind()
			return nil, err
		}
		out = append(out, alloc{off, piece})
		remaining -= piece
	}
	return out, nil
}

// refChunk is one chunk's residency in the reference layout.
type refChunk struct {
	size   int64
	tier   mem.Tier
	allocs []alloc
}

// refObj tracks an object's partitioning and chunk residency.
type refObj struct {
	size   int64
	chunks []refChunk
}

// refState is the pre-ledger State: per-object chunk slices with
// per-chunk piece slices, and one allocator per tier. Its build and move
// logic reproduce the original implementation exactly, so comparing it
// against the ledger checks both the byte accounting and the
// incremental accumulators.
type refState struct {
	tiers    []*FreeList
	resident []int64
	objs     []refObj
}

// newRefState lays the objects out exactly as the original NewState
// did: slice order, all chunks in NVM, fragmented allocation.
func newRefState(hms mem.HMS, objects []*task.Object, chunksFor map[task.ObjectID]int) (*refState, error) {
	nt := hms.NumTiers()
	r := &refState{
		tiers:    make([]*FreeList, nt),
		resident: make([]int64, nt),
		objs:     make([]refObj, len(objects)),
	}
	for t := range r.tiers {
		r.tiers[t] = NewFreeList(hms.Capacity(mem.Tier(t)))
	}
	for _, o := range objects {
		n := 1
		if chunksFor != nil && o.Chunkable {
			if c := chunksFor[o.ID]; c > 1 {
				n = c
			}
		}
		chunks := make([]refChunk, n)
		base := o.Size / int64(n)
		rem := o.Size - base*int64(n)
		for i := range chunks {
			sz := base
			if int64(i) < rem {
				sz++
			}
			if sz == 0 {
				sz = 1 // degenerate: more chunks than bytes
			}
			allocs, err := allocFragmented(r.tiers[mem.InNVM], sz)
			if err != nil {
				return nil, fmt.Errorf("heap: ref placing %q in NVM: %w", o.Name, err)
			}
			chunks[i] = refChunk{size: sz, tier: mem.InNVM, allocs: allocs}
			r.resident[mem.InNVM] += sz
		}
		r.objs[o.ID] = refObj{size: o.Size, chunks: chunks}
	}
	return r, nil
}

// move is the original Move: allocate destination pieces, free source
// pieces, update the accumulators.
func (r *refState) move(ref ChunkRef, to mem.Tier) error {
	c := &r.objs[ref.Obj].chunks[ref.Index]
	if c.tier == to {
		return nil
	}
	src, dst := r.tiers[c.tier], r.tiers[to]
	allocs, err := allocFragmented(dst, c.size)
	if err != nil {
		return fmt.Errorf("heap: ref move %v to %v: %w", ref, to, err)
	}
	for _, a := range c.allocs {
		if err := src.Free(a.off, a.size); err != nil {
			return fmt.Errorf("heap: ref move %v released bad source range: %w", ref, err)
		}
	}
	r.resident[c.tier] -= c.size
	r.resident[to] += c.size
	c.tier, c.allocs = to, allocs
	return nil
}

// checkAllocators runs every tier allocator's own invariant check.
func (r *refState) checkAllocators() error {
	for t, f := range r.tiers {
		if err := f.CheckInvariants(); err != nil {
			return fmt.Errorf("ref tier %d: %w", t, err)
		}
	}
	return nil
}

// verify compares every observable of the reference layout against the
// ledger: per-tier allocator used and available bytes against the
// ledger's resident bytes and TierAvail, the resident accumulators,
// per-chunk tier and size, and the per-object residency tables against
// a reference scan.
func (r *refState) verify(s *State) error {
	if len(r.tiers) != s.nt {
		return fmt.Errorf("tier count %d != %d", len(r.tiers), s.nt)
	}
	for t := range r.tiers {
		tier := mem.Tier(t)
		if r.tiers[t].Used() != s.ResidentBytes(tier) || r.tiers[t].Avail() != s.TierAvail(tier) {
			return fmt.Errorf("tier %d allocator used/avail %d/%d != ledger %d/%d",
				t, r.tiers[t].Used(), r.tiers[t].Avail(), s.ResidentBytes(tier), s.TierAvail(tier))
		}
		if r.resident[t] != s.resident[t] {
			return fmt.Errorf("tier %d resident %d != %d", t, r.resident[t], s.resident[t])
		}
	}
	if r.tiers[s.nt-1].Used() != s.DRAMUsed() {
		return fmt.Errorf("fastest tier used %d != DRAMUsed %d", r.tiers[s.nt-1].Used(), s.DRAMUsed())
	}
	if len(r.objs) != len(s.objSize) {
		return fmt.Errorf("object count %d != %d", len(r.objs), len(s.objSize))
	}
	for obj := range r.objs {
		o := &r.objs[obj]
		if o.size != s.objSize[obj] {
			return fmt.Errorf("object %d size %d != %d", obj, o.size, s.objSize[obj])
		}
		if len(o.chunks) != s.base[obj+1]-s.base[obj] {
			return fmt.Errorf("object %d chunk count %d != %d",
				obj, len(o.chunks), s.base[obj+1]-s.base[obj])
		}
		var sum int64
		for i := range o.chunks {
			c := &o.chunks[i]
			ix := s.base[obj] + i
			sum += c.size
			if c.size != s.chunkSize[ix] {
				return fmt.Errorf("chunk %d size %d != %d", ix, c.size, s.chunkSize[ix])
			}
			if c.tier != s.chunkTier[ix] {
				return fmt.Errorf("chunk %d tier %v != %v", ix, c.tier, s.chunkTier[ix])
			}
		}
		if sum != s.objSum[obj] {
			return fmt.Errorf("object %d chunk sum %d != %d", obj, sum, s.objSum[obj])
		}
		for t := 0; t < s.nt; t++ {
			var want int64
			for i := range o.chunks {
				if int(o.chunks[i].tier) == t {
					want += o.chunks[i].size
				}
			}
			if got := s.objOn[obj*s.nt+t]; got != want {
				return fmt.Errorf("object %d tier %d resident %d != %d", obj, t, got, want)
			}
		}
	}
	return nil
}
