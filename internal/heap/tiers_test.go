package heap

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/task"
)

// Three-tier heap state: allocation starts on tier 0, Move walks chunks
// up and down the hierarchy, per-tier accumulators and fractions track
// it, and a full middle tier refuses further residents.
func TestStateThreeTier(t *testing.T) {
	h := mem.DRAMCXLNVM(8*mem.MB, 4*mem.MB)
	b := task.NewBuilder("3tier")
	a := b.Object("a", 4*mem.MB)
	c := b.Object("c", 4*mem.MB)
	b.Submit("k", 0, []task.Access{{Obj: a, Mode: task.In, Loads: 1}}, nil)
	g := b.Build()

	st, err := new(State).Reset(h, g.Objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTiers() != 3 || st.Fastest() != mem.Tier(2) {
		t.Fatalf("NumTiers=%d Fastest=%v", st.NumTiers(), st.Fastest())
	}
	if got := st.ResidentBytes(0); got != 8*mem.MB {
		t.Fatalf("tier 0 resident %d, want all %d", got, 8*mem.MB)
	}

	refA := st.Refs(a)[0]
	refC := st.Refs(c)[0]

	// Walk a up: NVM -> CXL -> DRAM.
	if !st.CanMoveTo(refA, 1) {
		t.Fatal("CanMoveTo(CXL) = false with an empty CXL tier")
	}
	if err := st.Move(refA, 1); err != nil {
		t.Fatal(err)
	}
	if st.Tier(refA) != 1 || st.ResidentBytes(1) != 4*mem.MB || st.ResidentBytes(0) != 4*mem.MB {
		t.Fatalf("after move to CXL: tier=%v resident=[%d %d %d]",
			st.Tier(refA), st.ResidentBytes(0), st.ResidentBytes(1), st.ResidentBytes(2))
	}
	if f := st.TierFraction(a, 1); f != 1 {
		t.Fatalf("TierFraction(a, CXL) = %v, want 1", f)
	}
	if err := st.Move(refA, 2); err != nil {
		t.Fatal(err)
	}
	if st.TierFraction(a, st.Fastest()) != 1 {
		t.Fatalf("a not fully on the fastest tier after promotion")
	}

	// The 4 MB CXL tier fits c; then it is full and refuses a second
	// resident (CanMoveTo), while the unbounded tier 0 always accepts.
	if err := st.Move(refC, 1); err != nil {
		t.Fatal(err)
	}
	if st.TierAvail(1) != 0 {
		t.Fatalf("CXL avail %d, want 0", st.TierAvail(1))
	}
	if err := st.Move(refA, 1); err == nil {
		t.Fatal("Move into a full CXL tier succeeded")
	}
	if st.CanMoveTo(refA, 1) {
		t.Fatal("CanMoveTo reports room in a full tier")
	}
	if !st.CanMoveTo(refA, 0) {
		t.Fatal("CanMoveTo(tier 0) = false; the slow tier is unbounded")
	}
	if err := st.Move(refA, 0); err != nil {
		t.Fatal(err)
	}

	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
