// Package placement solves the data-placement decision problem: given
// candidate data objects (or chunks), each with a size and a weight —
// predicted benefit minus migration and eviction costs, the paper's
// equation (7) — choose the subset to keep in DRAM that maximizes total
// weight without exceeding the DRAM capacity. This is a 0-1 knapsack
// problem; the runtime solves it with dynamic programming, and the test
// suite cross-checks the DP against greedy and exhaustive solvers. For
// machines with more than two tiers, AssignTiers extends the solve to a
// multiple-choice knapsack (one tier per chunk, capacity per tier) as a
// fastest-first cascade of 0-1 knapsacks.
//
// Invariants: Solver memoization keys are exact canonical signatures of
// the numeric inputs — capacity, granularity, every item's (Size,
// Float64bits(Weight)), and for SolveTagged the caller's tag — so a
// cache hit is bit-identical to a cold DP by construction; and a chosen
// set always really fits, because sizes quantize up.
package placement

import (
	"slices"
	"sort"

	"repro/internal/heap"
)

// Item is one candidate DRAM resident.
type Item struct {
	Ref    heap.ChunkRef
	Size   int64
	Weight float64
}

// DefaultGranularity quantizes sizes for the DP table; 1 MB keeps the
// table small while DRAM capacities are hundreds of MB.
const DefaultGranularity = 1 << 20

// Knapsack returns the indices of the chosen items, maximizing total
// weight subject to the capacity. Sizes are quantized up to gran
// (conservative: a chosen set always really fits). Items with
// non-positive weight are never chosen — moving them cannot pay off.
func Knapsack(items []Item, capacity int64, gran int64) []int {
	var sc knapScratch
	return sc.solve(nil, items, capacity, gran)
}

// knapCand is one filtered DP candidate.
type knapCand struct {
	idx   int
	cells int
	w     float64
}

type knapRow struct{ lo, top, off int } // live range [lo, top], flags at taken[off:]

// knapScratch holds the DP working set — the candidates, their rows, the
// best[] value row and the rows' taken flags in one slab — so a
// long-lived owner (the Solver) re-runs the DP without allocating. Every
// best cell and taken flag is written before it is read.
type knapScratch struct {
	cands []knapCand
	rows  []knapRow
	best  []float64
	taken []bool
}

// solve appends Knapsack(items, capacity, gran) to dst, using the
// scratch, and returns the extended slice. With c_i a candidate's size in
// cells, P_i = c_0+...+c_i and S_i = c_i+...+c_{n-1}, row i visits only
// [max(c_i, cells-S_{i+1}), min(cells, P_i)]: above P_i every cell equals
// P_i's (same additions), so best is extended by copying and lookups
// clamp to the row's top; below cells-S_{i+1} nothing reads, and a
// reconstruction lookup below the floor is below c_i, never taken. The
// arithmetic, its order and the strict > are the full table's, so the
// indices are identical (DESIGN.md "Planner internals"; FuzzKnapsack).
func (sc *knapScratch) solve(dst []int, items []Item, capacity int64, gran int64) []int {
	if gran <= 0 {
		gran = DefaultGranularity
	}
	cells := int(capacity / gran)
	if cells <= 0 || len(items) == 0 {
		return dst
	}

	// Candidate filter: positive weight and fits at all.
	cands := sc.cands[:0]
	total := 0
	for i, it := range items {
		if it.Weight <= 0 || it.Size <= 0 {
			continue
		}
		c := int((it.Size + gran - 1) / gran)
		if c > cells {
			continue
		}
		cands = append(cands, knapCand{idx: i, cells: c, w: it.Weight})
		total += c
	}
	sc.cands = cands

	// Fast path: if every positive-weight candidate fits together, the
	// optimum is all of them — the DP would reconstruct exactly that set
	// (dropping any candidate only loses weight). Local searches pose
	// this case constantly: one task's few chunks against a whole tier.
	if total <= cells {
		for _, c := range cands {
			dst = append(dst, c.idx)
		}
		return dst
	}

	rows := sc.rows[:0]
	prefix, suffix, need := 0, total, 0
	for _, c := range cands {
		prefix += c.cells
		suffix -= c.cells
		rw := knapRow{lo: max(c.cells, cells-suffix), top: min(cells, prefix), off: need}
		rows = append(rows, rw)
		need += rw.top - rw.lo + 1
	}
	sc.rows = rows
	if cap(sc.best) < cells+1 {
		sc.best = make([]float64, cells+1)
	}
	best := sc.best[:cells+1]
	if cap(sc.taken) < need {
		sc.taken = make([]bool, need)
	}
	taken := sc.taken[:need]

	best[0] = 0
	top := 0
	for i, c := range cands {
		rw := rows[i]
		for x := top + 1; x <= rw.top; x++ {
			best[x] = best[top]
		}
		top = rw.top
		// Cell j of the row is capacity rw.lo+j: row[j] is its best,
		// under[j] the best c.cells below it and tr[j] its taken flag.
		// Slicing all three to one length lets the compiler drop the
		// loop's bounds checks; descending j still reads each under cell
		// before this row writes it. Bulk-clear the flags (memclr), then
		// mark only the improvements.
		row := best[rw.lo : rw.top+1]
		under := best[rw.lo-c.cells : rw.top+1-c.cells][:len(row)]
		tr := taken[rw.off : rw.off+len(row)]
		clear(tr)
		for j := len(row) - 1; j >= 0; j-- {
			if v := under[j] + c.w; v > row[j] {
				row[j] = v
				tr[j] = true
			}
		}
	}

	// Reconstruct, last row first; the indices come out descending.
	n0 := len(dst)
	cap := cells
	for i := len(cands) - 1; i >= 0; i-- {
		rw := rows[i]
		if x := min(cap, rw.top); x >= rw.lo && taken[rw.off+x-rw.lo] {
			dst = append(dst, cands[i].idx)
			cap -= cands[i].cells
		}
	}
	slices.Reverse(dst[n0:])
	return dst
}

// Greedy chooses items by weight density (weight per byte) until the
// capacity is exhausted — the classic knapsack approximation, kept as a
// fast fallback and a cross-check for the DP.
func Greedy(items []Item, capacity int64) []int {
	order := make([]int, 0, len(items))
	for i, it := range items {
		if it.Weight > 0 && it.Size > 0 && it.Size <= capacity {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da := items[order[a]].Weight / float64(items[order[a]].Size)
		db := items[order[b]].Weight / float64(items[order[b]].Size)
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	var chosen []int
	var used int64
	for _, i := range order {
		if used+items[i].Size <= capacity {
			chosen = append(chosen, i)
			used += items[i].Size
		}
	}
	sort.Ints(chosen)
	return chosen
}

// BruteForce enumerates all subsets; only usable for small item counts.
// It is the oracle the property tests compare the DP against.
func BruteForce(items []Item, capacity int64) []int {
	n := len(items)
	if n > 20 {
		panic("placement: BruteForce beyond 20 items")
	}
	bestW, bestMask := 0.0, 0
	for mask := 0; mask < 1<<n; mask++ {
		var size int64
		var w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += items[i].Size
				w += items[i].Weight
			}
		}
		if size <= capacity && w > bestW {
			bestW, bestMask = w, mask
		}
	}
	var chosen []int
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			chosen = append(chosen, i)
		}
	}
	return chosen
}

// TotalWeight sums the weights of the chosen indices.
func TotalWeight(items []Item, chosen []int) float64 {
	var w float64
	for _, i := range chosen {
		w += items[i].Weight
	}
	return w
}

// TotalSize sums the sizes of the chosen indices.
func TotalSize(items []Item, chosen []int) int64 {
	var s int64
	for _, i := range chosen {
		s += items[i].Size
	}
	return s
}
