package placement

import (
	"slices"

	"repro/internal/heap"
)

// TierItem is one chunk's candidacy across an N-tier hierarchy.
// Weight[t] is the net benefit (seconds saved minus migration and
// eviction costs) of placing the chunk on tier t rather than tier 0;
// Weight[0] is therefore 0 by construction and tier 0 — the unbounded
// slow tier — is the default assignment.
type TierItem struct {
	Ref    heap.ChunkRef
	Size   int64
	Weight []float64 // indexed by tier, len = number of tiers
}

// AssignTiers solves the multiple-choice knapsack over tiers: each item
// picks exactly one tier, subject to a per-tier byte capacity, maximizing
// total weight. caps[t] is tier t's capacity; caps[0] is ignored (tier 0
// is the overflow tier and takes everything unassigned).
//
// The solver is a tier-ordered cascade of memoized 0-1 knapsacks: tiers
// are filled fastest first, each stage running Knapsack over the not-yet-
// assigned items with that tier's weights (via Solver.SolveTagged, the
// tier id folded into the memo signature), and items every stage declines
// fall through to tier 0. The cascade is a heuristic for N > 2 — an item
// barely losing the fast tier's knapsack competes again for the middle
// tier — but for N=2 it degenerates to exactly one Knapsack call over
// Weight[1], the legacy two-tier solve.
//
// A tier with caps[t] <= 0 is closed — zero capacity, or quarantined by
// the runtime after a fault burst — and its stage is skipped outright, so
// no item is ever assigned there (identical to a cap-0 knapsack, minus
// the solver call).
//
// Returns the chosen tier per item, aligned with items. With a non-nil
// s the result and the cascade's working slices live in s's scratch, so
// a warm Solver allocates nothing, and the result is valid until s's
// next AssignTiers call.
func AssignTiers(s *Solver, items []TierItem, caps []int64, gran int64) []int {
	sc := &tierScratch{}
	if s != nil {
		sc = &s.tiers
	}
	nt := len(caps)
	assign := slices.Grow(sc.assign[:0], len(items))[:len(items)]
	clear(assign)
	sc.assign = assign
	if len(items) == 0 || nt < 2 {
		return assign
	}
	// remaining holds indices into items still unassigned, in input order
	// (stable: stage candidates and results stay deterministic).
	remaining := sc.remaining[:0]
	for i := range items {
		remaining = append(remaining, i)
	}
	stage := sc.stage[:0]
	for t := nt - 1; t >= 1 && len(remaining) > 0; t-- {
		if caps[t] <= 0 {
			continue // closed tier: nothing places here
		}
		stage = stage[:0]
		for _, ix := range remaining {
			it := items[ix]
			w := 0.0
			if t < len(it.Weight) {
				w = it.Weight[t]
			}
			stage = append(stage, Item{Ref: it.Ref, Size: it.Size, Weight: w})
		}
		var chosen []int
		if s != nil {
			chosen = s.SolveTagged(uint64(t), stage, caps[t], gran)
		} else {
			chosen = Knapsack(stage, caps[t], gran)
		}
		// chosen is ascending over stage; split remaining accordingly.
		kept := remaining[:0]
		ci := 0
		for si, ix := range remaining {
			if ci < len(chosen) && chosen[ci] == si {
				assign[ix] = t
				ci++
				continue
			}
			kept = append(kept, ix)
		}
		remaining = kept
	}
	sc.remaining, sc.stage = remaining, stage
	return assign
}

// tierScratch is AssignTiers' working storage: the assignment it
// returns, the indices of the items still unassigned, and one tier
// stage's knapsack items.
type tierScratch struct {
	assign, remaining []int
	stage             []Item
}

// TierUsedBytes sums the bytes assigned to each tier.
func TierUsedBytes(items []TierItem, assign []int, nt int) []int64 {
	used := make([]int64, nt)
	for i, t := range assign {
		used[t] += items[i].Size
	}
	return used
}
