package heap

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/task"
)

// ledgerDraws turns bytes into bounded draws; once the bytes run out
// every draw is 0.
type ledgerDraws struct{ b []byte }

func (d *ledgerDraws) done() bool { return len(d.b) == 0 }

// next returns a draw in [0, n).
func (d *ledgerDraws) next(n int) int {
	if len(d.b) == 0 {
		return 0
	}
	v := int(d.b[0]) % n
	d.b = d.b[1:]
	return v
}

// ledgerChunkCounts are the partitions a drawn object may ask for: the
// powers of two keep MB-grid objects on an exact sub-MB grid, and 3
// leaves remainders.
var ledgerChunkCounts = []int{1, 2, 3, 4, 8}

// decodeLedgerCase builds a machine and an object set from the draws.
// Sizes and capacities sit on a 1 MB grid, and a fast tier's capacity is
// usually the total of a few objects, so tiers fill exactly and moves
// land on the room check's boundary. A fast tier may also have no
// capacity at all, and NVM is sometimes too small to hold everything.
func decodeLedgerCase(d *ledgerDraws) (mem.HMS, []*task.Object, []int) {
	nt := 2 + d.next(mem.MaxTiers-1)
	n := 1 + d.next(8)
	objs := make([]*task.Object, n)
	chunks := make([]int, n)
	for i := range objs {
		size := int64(d.next(16)+1) * mem.MB
		if d.next(16) == 0 {
			size = int64(d.next(4) + 1) // tiny: more chunks than bytes
		}
		objs[i] = &task.Object{ID: task.ObjectID(i), Name: "o", Size: size, Chunkable: d.next(4) != 0}
		chunks[i] = ledgerChunkCounts[d.next(len(ledgerChunkCounts))]
	}
	tiers := make([]mem.TierSpec, nt)
	tiers[0] = mem.TierSpec{Device: mem.NVMBandwidth(0.5), Capacity: 1 << 44}
	if d.next(8) == 0 {
		tiers[0].Capacity = int64(d.next(48)+1) * mem.MB
	}
	for t := 1; t < nt; t++ {
		var capacity int64
		switch d.next(4) {
		case 0: // empty
		case 1:
			capacity = int64(d.next(33)) * mem.MB
		default: // room for exactly a subset of the objects
			for _, o := range objs {
				if d.next(2) == 0 {
					capacity += o.Size
				}
			}
		}
		tiers[t] = mem.TierSpec{Device: mem.DRAM(), Capacity: capacity}
	}
	return mem.NewTieredHMS(tiers...), objs, chunks
}

// sameErr reports whether the ledger and the reference failed alike:
// both nil, or both non-nil with the same text once the reference's
// "ref " marker is dropped.
func sameErr(ledger, ref error) bool {
	if ledger == nil || ref == nil {
		return ledger == nil && ref == nil
	}
	return ledger.Error() == strings.Replace(ref.Error(), "heap: ref ", "heap: ", 1)
}

// checkLedgerStep asserts that the ledger and the reference agree and
// that both pass their own invariant checks.
func checkLedgerStep(t *testing.T, step string, s *State, r *refState) {
	t.Helper()
	if err := r.verify(s); err != nil {
		t.Fatalf("%s: ledger diverged from reference: %v", step, err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: ledger invariants: %v", step, err)
	}
	if err := r.checkAllocators(); err != nil {
		t.Fatalf("%s: reference invariants: %v", step, err)
	}
}

// runLedgerCase decodes a machine, objects and a move sequence from the
// bytes, lays them out in s through Reset and in a new reference layout,
// applies every move to both and compares them after each step. Callers
// pass one s for many cases, so each case also checks that a State
// Reset from any earlier layout, complete or failed, behaves as a new
// one.
func runLedgerCase(t *testing.T, s *State, data []byte) {
	d := &ledgerDraws{b: data}
	h, objs, chunks := decodeLedgerCase(d)
	_, errL := s.Reset(h, objs, chunks)
	refChunks := make(map[task.ObjectID]int, len(chunks))
	for obj, n := range chunks {
		refChunks[task.ObjectID(obj)] = n
	}
	r, errR := newRefState(h, objs, refChunks)
	if !sameErr(errL, errR) {
		t.Fatalf("build: ledger error %v, reference error %v", errL, errR)
	}
	if errL != nil {
		return
	}
	checkLedgerStep(t, "build", s, r)
	for step := 0; !d.done(); step++ {
		obj := task.ObjectID(d.next(len(objs)))
		ref := ChunkRef{Obj: obj, Index: d.next(s.Chunks(obj))}
		to := mem.Tier(d.next(s.NumTiers()))
		fits := s.CanMoveTo(ref, to)
		errL, errR := s.Move(ref, to), r.move(ref, to)
		if !sameErr(errL, errR) {
			t.Fatalf("step %d: move %v to %v: ledger error %v, reference error %v", step, ref, to, errL, errR)
		}
		if fits != (errL == nil) {
			t.Fatalf("step %d: CanMoveTo(%v, %v) = %v but Move returned %v", step, ref, to, fits, errL)
		}
		checkLedgerStep(t, "after move", s, r)
	}
}

// TestLedgerMatchesReference replays seeded builds and random move
// sequences on 2-, 3- and 4-tier machines through the byte ledger and
// through the address-allocating reference layout, and requires the two
// to agree after every step: the same errors, CanMoveTo predicting each
// outcome, and every observable equal. One State serves every case.
func TestLedgerMatchesReference(t *testing.T) {
	var s State
	for nt := 2; nt <= mem.MaxTiers; nt++ {
		for seed := int64(0); seed < 40; seed++ {
			runLedgerCase(t, &s, ledgerSeed(nt, seed))
		}
	}
}

// ledgerSeed draws a case's bytes from a seed, with the first draw
// fixing the machine's tier count.
func ledgerSeed(nt int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 64+rng.Intn(512))
	rng.Read(data)
	data[0] = byte(nt - 2)
	return data
}

// FuzzLedger decodes arbitrary bytes into the same builds and move
// sequences as TestLedgerMatchesReference, starting from its first
// seeds. One State is Reset to each input's layout in turn, so every
// input also runs on a State that held the previous input's layout.
func FuzzLedger(f *testing.F) {
	for nt := 2; nt <= mem.MaxTiers; nt++ {
		for seed := int64(0); seed < 4; seed++ {
			f.Add(ledgerSeed(nt, seed))
		}
	}
	var s State
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		runLedgerCase(t, &s, data)
	})
}

// TestStateCostIndependentOfBytes: what a State costs the host depends
// on its chunk count, not on the bytes it simulates. Four 4 TiB objects
// on a machine whose DRAM holds one of them are built, and each is
// promoted and demoted again, within a fixed allocation budget.
func TestStateCostIndependentOfBytes(t *testing.T) {
	const size = 4 << 40
	objs := make([]*task.Object, 4)
	for i := range objs {
		objs[i] = &task.Object{ID: task.ObjectID(i), Name: "big", Size: size}
	}
	h := mem.NewHMS(mem.DRAM(), mem.NVMBandwidth(0.5), size)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := new(State).Reset(h, objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range objs {
		ref := ChunkRef{Obj: task.ObjectID(i)}
		if err := s.Move(ref, mem.InDRAM); err != nil {
			t.Fatal(err)
		}
		if err := s.Move(ref, mem.InNVM); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("building and moving 16 TiB of objects allocated %d bytes, want < 1 MiB", grew)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
