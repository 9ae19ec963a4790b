package model

import "repro/internal/mem"

// TierCosts holds the model's per-tier-pair cost matrices for one access
// profile: Access[i][j] is the seconds saved (negative: lost) by moving
// the profiled traffic from tier i to tier j, and Migration[i][j] is the
// unhidden copy time of moving `size` bytes from tier i to tier j.
// Diagonals are zero. It tabulates the pairwise equations of
// equations.go over every ordered tier pair of the machine.
type TierCosts struct {
	N         int
	Access    [][]float64
	Migration [][]float64
}

// TierCostsFor builds the cost matrices for one profiled access pattern
// (loads, stores, equation-(1) bandwidth consumption) and one chunk
// size, with overlapSec of hideable execution assumed for every pair.
func (p Params) TierCostsFor(loads, stores, bwCons float64, size int64, overlapSec float64) TierCosts {
	n := p.HMS.NumTiers()
	tc := TierCosts{N: n, Access: make([][]float64, n), Migration: make([][]float64, n)}
	for i := 0; i < n; i++ {
		tc.Access[i] = make([]float64, n)
		tc.Migration[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			from, to := mem.Tier(i), mem.Tier(j)
			tc.Access[i][j] = p.BenefitProfiledBetween(loads, stores, bwCons, from, to)
			tc.Migration[i][j] = p.MigrationCostBetween(size, overlapSec, from, to)
		}
	}
	return tc
}
