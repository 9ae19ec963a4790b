package placement

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fullTableScratch runs the knapsack DP as it was before its rows were
// bounded: every row spans every capacity cell. The body below is that
// DP verbatim. It is the oracle the bounded DP in knapsack.go must match
// index for index.
type fullTableScratch struct {
	cands []knapCand
	best  []float64
	taken []bool // len(cands) rows of (cells+1) entries
}

func knapsackFullTable(items []Item, capacity int64, gran int64) []int {
	var sc fullTableScratch
	return sc.solve(items, capacity, gran)
}

func (sc *fullTableScratch) solve(items []Item, capacity int64, gran int64) []int {
	if gran <= 0 {
		gran = DefaultGranularity
	}
	cells := int(capacity / gran)
	if cells <= 0 || len(items) == 0 {
		return nil
	}

	// Candidate filter: positive weight and fits at all.
	cands := sc.cands[:0]
	for i, it := range items {
		if it.Weight <= 0 || it.Size <= 0 {
			continue
		}
		c := int((it.Size + gran - 1) / gran)
		if c > cells {
			continue
		}
		cands = append(cands, knapCand{idx: i, cells: c, w: it.Weight})
	}
	sc.cands = cands
	if len(cands) == 0 {
		return nil
	}

	// Fast path: if every positive-weight candidate fits together, the
	// optimum is all of them — the DP would reconstruct exactly that set
	// (dropping any candidate only loses weight). Local searches pose
	// this case constantly: one task's few chunks against a whole tier.
	total := 0
	for _, c := range cands {
		total += c.cells
	}
	if total <= cells {
		chosen := make([]int, len(cands))
		for i, c := range cands {
			chosen[i] = c.idx // ascending already: the filter preserves item order
		}
		return chosen
	}

	// Classic DP over capacity cells, tracking choices with a row per
	// item to reconstruct the solution.
	row := cells + 1
	if cap(sc.best) < row {
		sc.best = make([]float64, row)
	}
	best := sc.best[:row]
	for i := range best {
		best[i] = 0
	}
	if need := len(cands) * row; cap(sc.taken) < need {
		sc.taken = make([]bool, need)
	}
	taken := sc.taken[:len(cands)*row]
	for i, c := range cands {
		// Bulk-clear the row (memclr), then mark only the improvements:
		// cheaper than a branch-and-store per cell, and cells below the
		// item's own size can never take it at all.
		tr := taken[i*row : (i+1)*row]
		clear(tr)
		for cap := cells; cap >= c.cells; cap-- {
			if v := best[cap-c.cells] + c.w; v > best[cap] {
				best[cap] = v
				tr[cap] = true
			}
		}
	}

	// Reconstruct.
	var chosen []int
	cap := cells
	for i := len(cands) - 1; i >= 0; i-- {
		if taken[i*row+cap] {
			chosen = append(chosen, cands[i].idx)
			cap -= cands[i].cells
		}
	}
	sort.Ints(chosen)
	return chosen
}

// knapWeights is the palette decodeKnapsack draws weights from: ties,
// zero and negative zero, negatives, values that sum inexactly
// (0.1+0.2 != 0.3), values a large partial sum absorbs (1e-17 next to
// 1), and the non-finite ones. NaN never improves a cell and +Inf
// saturates it, and the bounded DP must reproduce both exactly.
var knapWeights = []float64{
	1, 1, 2, 3, 0, math.Copysign(0, -1), -1, -2.5,
	0.1, 0.2, 0.3, 1e-17, 1 + 1e-16, 1e300, 5e-324,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// decodeKnapsack turns fuzz bytes into a knapsack instance of at most
// 64 items and 2,048 capacity cells. Each item takes three bytes: a size
// (0 and sizes beyond the capacity included) and a weight, drawn from
// knapWeights or as a signed byte in quarters, which ties often.
func decodeKnapsack(capRaw uint16, granRaw uint8, data []byte) (items []Item, capacity, gran int64) {
	gran = int64(granRaw % 9) // 0 selects DefaultGranularity
	capacity = int64(capRaw % 2048)
	if gran > 0 {
		capacity *= gran
	}
	for i := 0; i+3 <= len(data) && len(items) < 64; i += 3 {
		size := int64(data[i]) * max(gran, 1)
		if data[i+1]&0x80 == 0 {
			size /= 4 // mostly small items, so capacity binds without all fitting
		}
		var w float64
		if sel := data[i+1] & 0x7f; int(sel) < len(knapWeights) {
			w = knapWeights[sel]
		} else {
			w = float64(int8(data[i+2])) / 4
		}
		items = append(items, item(len(items), size, w))
	}
	return items, capacity, gran
}

// checkKnapsack compares the bounded DP, through Knapsack and through a
// Solver whose scratch holds another instance's leftovers, with the
// full-table oracle.
func checkKnapsack(t *testing.T, items []Item, capacity, gran int64) {
	t.Helper()
	want := knapsackFullTable(items, capacity, gran)
	if got := Knapsack(items, capacity, gran); !slices.Equal(got, want) {
		t.Fatalf("Knapsack(%v, %d, %d) = %v, full table %v", items, capacity, gran, got, want)
	}
	s := NewSolver()
	rev := slices.Clone(items)
	slices.Reverse(rev)
	s.AppendKnapsack(nil, rev, capacity+gran, gran) // leave stale scratch behind
	prefix := []int{-7}
	got := s.AppendKnapsack(prefix, items, capacity, gran)
	if got[0] != -7 || !slices.Equal(got[1:], want) {
		t.Fatalf("AppendKnapsack(%v, %d, %d) = %v, full table %v after prefix [-7]", items, capacity, gran, got, want)
	}
	if s.Hits != 0 || s.Misses != 0 || s.Len() != 0 {
		t.Fatalf("AppendKnapsack touched the memo: %d hits, %d misses, %d entries", s.Hits, s.Misses, s.Len())
	}
}

// TestKnapsackMatchesFullTable runs the bounded DP against the oracle on
// random instances drawn the way FuzzKnapsack decodes its inputs.
func TestKnapsackMatchesFullTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 3*64)
	for n := 0; n < 3000; n++ {
		rng.Read(data)
		k := 3 * rng.Intn(65)
		items, capacity, gran := decodeKnapsack(uint16(rng.Intn(1<<16)), uint8(rng.Intn(256)), data[:k])
		checkKnapsack(t, items, capacity, gran)
	}
}

// FuzzKnapsack checks the bounded DP against the full-table oracle. Its
// seed corpus (testdata/fuzz/FuzzKnapsack) covers ties, zero, negative,
// absorbed and non-finite weights, and oversize items.
func FuzzKnapsack(f *testing.F) {
	f.Add(uint16(100), uint8(1), []byte{60, 0x80, 0, 60, 0x80, 0, 100, 0x80 | 3, 0})
	f.Fuzz(func(t *testing.T, capRaw uint16, granRaw uint8, data []byte) {
		items, capacity, gran := decodeKnapsack(capRaw, granRaw, data)
		checkKnapsack(t, items, capacity, gran)
	})
}
