package heap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/task"
)

func TestFreeListAllocFree(t *testing.T) {
	f := NewFreeList(1000)
	a, err := f.Alloc(100)
	if err != nil || a != 0 {
		t.Fatalf("first alloc = %d, %v", a, err)
	}
	b, err := f.Alloc(200)
	if err != nil || b != 100 {
		t.Fatalf("second alloc = %d, %v", b, err)
	}
	if f.Used() != 300 || f.Avail() != 700 {
		t.Fatalf("used=%d avail=%d", f.Used(), f.Avail())
	}
	if err := f.Free(a, 100); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The freed hole is reused first-fit.
	c, err := f.Alloc(50)
	if err != nil || c != 0 {
		t.Fatalf("hole not reused: %d, %v", c, err)
	}
}

func TestFreeListCoalescing(t *testing.T) {
	f := NewFreeList(300)
	a, _ := f.Alloc(100)
	b, _ := f.Alloc(100)
	c, _ := f.Alloc(100)
	if err := f.Free(a, 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(c, 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(b, 100); err != nil {
		t.Fatal(err)
	}
	if f.Largest() != 300 {
		t.Fatalf("not coalesced: largest=%d", f.Largest())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeListErrors(t *testing.T) {
	f := NewFreeList(100)
	if _, err := f.Alloc(0); err == nil {
		t.Fatal("alloc(0) succeeded")
	}
	if _, err := f.Alloc(200); err == nil {
		t.Fatal("oversized alloc succeeded")
	}
	off, _ := f.Alloc(50)
	if err := f.Free(off, 50); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(off, 50); err == nil {
		t.Fatal("double free succeeded")
	}
	if err := f.Free(-1, 10); err == nil {
		t.Fatal("negative free succeeded")
	}
	if err := f.Free(90, 20); err == nil {
		t.Fatal("out-of-bounds free succeeded")
	}
}

// TestFreeListRandomOps property-tests the allocator with random
// alloc/free sequences, checking invariants after every operation.
func TestFreeListRandomOps(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewFreeList(1 << 16)
		type alloc struct{ off, size int64 }
		var live []alloc
		for op := 0; op < 300; op++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := int64(rng.Intn(4096) + 1)
				off, err := f.Alloc(size)
				if err == nil {
					live = append(live, alloc{off, size})
				}
			} else {
				i := rng.Intn(len(live))
				a := live[i]
				if f.Free(a.off, a.size) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if f.CheckInvariants() != nil {
				return false
			}
		}
		// Free everything: the list must coalesce back to one full span.
		for _, a := range live {
			if f.Free(a.off, a.size) != nil {
				return false
			}
		}
		return f.Used() == 0 && f.Largest() == 1<<16 && f.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func testObjects() []*task.Object {
	return []*task.Object{
		{ID: 0, Name: "A", Size: 64 * mem.MB, Chunkable: true},
		{ID: 1, Name: "B", Size: 100 * mem.MB, Chunkable: false},
		{ID: 2, Name: "C", Size: 10 * mem.MB, Chunkable: true},
	}
}

func newTestState(t *testing.T, chunks map[task.ObjectID]int) *State {
	t.Helper()
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	s, err := NewState(h, testObjects(), chunks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStateInitialPlacementIsNVM(t *testing.T) {
	s := newTestState(t, nil)
	for id := task.ObjectID(0); id < 3; id++ {
		if f := s.TierFraction(id, mem.InDRAM); f != 0 {
			t.Fatalf("object %d started with DRAM fraction %g", id, f)
		}
	}
	if s.DRAMUsed() != 0 {
		t.Fatal("DRAM used before any promotion")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatePromoteDemote(t *testing.T) {
	s := newTestState(t, nil)
	ref := ChunkRef{Obj: 0}
	if !s.CanMoveTo(ref, mem.InDRAM) {
		t.Fatal("64MB should fit in 128MB DRAM")
	}
	if err := s.Move(ref, mem.InDRAM); err != nil {
		t.Fatal(err)
	}
	if s.TierFraction(0, mem.InDRAM) != 1 {
		t.Fatal("object 0 not fully promoted")
	}
	if s.DRAMUsed() != 64*mem.MB {
		t.Fatalf("DRAM used = %d", s.DRAMUsed())
	}
	// 100 MB object B cannot fit alongside.
	if s.CanMoveTo(ChunkRef{Obj: 1}, mem.InDRAM) {
		t.Fatal("B should not fit")
	}
	if err := s.Move(ChunkRef{Obj: 1}, mem.InDRAM); err == nil {
		t.Fatal("promoting B should fail")
	}
	// After demoting A, B fits.
	if err := s.Move(ref, mem.InNVM); err != nil {
		t.Fatal(err)
	}
	if err := s.Move(ChunkRef{Obj: 1}, mem.InDRAM); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStateMoveIsIdempotent(t *testing.T) {
	s := newTestState(t, nil)
	ref := ChunkRef{Obj: 2}
	if err := s.Move(ref, mem.InDRAM); err != nil {
		t.Fatal(err)
	}
	used := s.DRAMUsed()
	if err := s.Move(ref, mem.InDRAM); err != nil {
		t.Fatal(err)
	}
	if s.DRAMUsed() != used {
		t.Fatal("no-op move changed accounting")
	}
}

func TestStateChunking(t *testing.T) {
	s := newTestState(t, map[task.ObjectID]int{0: 4, 1: 4})
	if s.Chunks(0) != 4 {
		t.Fatalf("A chunks = %d, want 4", s.Chunks(0))
	}
	// B is not chunkable; the request is ignored.
	if s.Chunks(1) != 1 {
		t.Fatalf("B chunks = %d, want 1", s.Chunks(1))
	}
	// Promote half of A.
	for i := 0; i < 2; i++ {
		if err := s.Move(ChunkRef{Obj: 0, Index: i}, mem.InDRAM); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.TierFraction(0, mem.InDRAM); got != 0.5 {
		t.Fatalf("DRAM fraction = %g, want 0.5", got)
	}
	if got := s.TierFraction(0, mem.InNVM); got != 0.5 {
		t.Fatalf("NVM fraction = %g, want 0.5", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStateChunkSizesCoverObject(t *testing.T) {
	// 10 MB into 3 chunks: sizes must sum to exactly the object size.
	s := newTestState(t, map[task.ObjectID]int{2: 3})
	var sum int64
	for i := 0; i < s.Chunks(2); i++ {
		sum += s.ChunkSize(ChunkRef{Obj: 2, Index: i})
	}
	if sum != 10*mem.MB {
		t.Fatalf("chunk sizes sum to %d, want %d", sum, 10*mem.MB)
	}
}

func TestServiceReserveRelease(t *testing.T) {
	s := NewService(1000)
	if err := s.Reserve("rank0", 600); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve("rank1", 500); err == nil {
		t.Fatal("over-allowance reserve succeeded")
	}
	if err := s.Reserve("rank1", 400); err != nil {
		t.Fatal(err)
	}
	if s.InUse() != 1000 || s.Granted("rank0") != 600 {
		t.Fatalf("accounting wrong: inuse=%d", s.InUse())
	}
	if err := s.Release("rank0", 700); err == nil {
		t.Fatal("over-release succeeded")
	}
	if err := s.Release("rank0", 600); err != nil {
		t.Fatal(err)
	}
	if s.InUse() != 400 {
		t.Fatalf("inuse=%d, want 400", s.InUse())
	}
}

func TestServiceConcurrentClients(t *testing.T) {
	// 8 goroutines each reserve/release 1000 times; the allowance is never
	// exceeded and the final accounting is zero.
	s := NewService(8 * 100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := string(rune('a' + g))
			for i := 0; i < 1000; i++ {
				if s.Reserve(client, 100) == nil {
					if s.InUse() > s.Allowance() {
						t.Errorf("allowance exceeded")
						return
					}
					if err := s.Release(client, 100); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s.InUse() != 0 {
		t.Fatalf("leaked %d bytes", s.InUse())
	}
}

// TestFragmentationImmunity: chunk residency is paged, so any sequence of
// promotions and demotions that respects capacity must succeed — even
// when the free space is shredded into small holes.
func TestFragmentationImmunity(t *testing.T) {
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 128*mem.MB)
	// 16 small objects (4 MB) and one large (64 MB).
	objs := make([]*task.Object, 0, 17)
	for i := 0; i < 16; i++ {
		objs = append(objs, &task.Object{ID: task.ObjectID(i), Name: "s", Size: 4 * mem.MB, Chunkable: true})
	}
	objs = append(objs, &task.Object{ID: 16, Name: "big", Size: 64 * mem.MB, Chunkable: true})
	s, err := NewState(h, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill DRAM with the small objects (64 MB) plus the big one (128 MB).
	for i := 0; i < 16; i++ {
		if err := s.Move(ChunkRef{Obj: task.ObjectID(i)}, mem.InDRAM); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Move(ChunkRef{Obj: 16}, mem.InDRAM); err != nil {
		t.Fatal(err)
	}
	// Demote every second small object: 32 MB of free space in 4 MB holes.
	for i := 0; i < 16; i += 2 {
		if err := s.Move(ChunkRef{Obj: task.ObjectID(i)}, mem.InNVM); err != nil {
			t.Fatal(err)
		}
	}
	// Demote the big one and re-promote it into the shredded space plus
	// its own hole: capacity suffices, fragmentation must not matter.
	if err := s.Move(ChunkRef{Obj: 16}, mem.InNVM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i += 2 {
		if err := s.Move(ChunkRef{Obj: task.ObjectID(i)}, mem.InDRAM); err != nil {
			t.Fatal(err)
		}
	}
	// Now free space = 64 MB as one 64 MB region minus interleaving: the
	// big object must come back regardless of layout.
	if !s.CanMoveTo(ChunkRef{Obj: 16}, mem.InDRAM) {
		t.Fatal("CanMoveTo refused despite sufficient capacity")
	}
	if err := s.Move(ChunkRef{Obj: 16}, mem.InDRAM); err != nil {
		t.Fatalf("fragmented promotion failed: %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFragmentedMoveRandomized property-tests that residency changes only
// ever fail on capacity, never on layout.
func TestFragmentedMoveRandomized(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), 64*mem.MB)
		n := rng.Intn(12) + 4
		objs := make([]*task.Object, n)
		for i := range objs {
			objs[i] = &task.Object{
				ID: task.ObjectID(i), Name: "o",
				Size: int64(rng.Intn(16)+1) * mem.MB, Chunkable: true,
			}
		}
		s, err := NewState(h, objs, nil)
		if err != nil {
			return false
		}
		for op := 0; op < 200; op++ {
			ref := ChunkRef{Obj: task.ObjectID(rng.Intn(n))}
			to := mem.InDRAM
			if rng.Intn(2) == 0 {
				to = mem.InNVM
			}
			fits := to == mem.InNVM || s.Tier(ref) == mem.InDRAM ||
				s.TierAvail(mem.InDRAM) >= s.ChunkSize(ref)
			err := s.Move(ref, to)
			if fits && err != nil {
				return false // layout failure: forbidden
			}
			if !fits && err == nil {
				return false // over-capacity move: forbidden
			}
			if s.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
