package workloads

import (
	"fmt"
	"math"

	"repro/internal/task"
)

func init() {
	register(Spec{
		Name: "kmeans",
		Description: "Lloyd's k-means over banded points: a large cold streamed dataset " +
			"against tiny hot centroid state",
		Build:    buildKMeans,
		App:      true,
		MaxScale: 15420,
	})
}

// buildKMeans builds Scale iterations (default 10) of Lloyd's algorithm
// on 2^21 points of dimension 8 (128 MB; 2^12 points with kernels) with
// k = 16 centroids. Every iteration streams each point band once
// (bandwidth-bound, no reuse) while the centroids and per-band partial
// sums stay cache-line hot — the textbook tiering workload: the big
// object earns almost nothing from DRAM, the small ones everything.
func buildKMeans(p Params) Built {
	iters := defScale(p.Scale, 10)
	logN := 21
	if p.Kernels {
		logN = 12
	}
	n := 1 << logN
	const (
		dim   = 8
		k     = 16
		bands = 16
	)
	perBand := n / bands
	pointBandBytes := int64(8 * dim * perBand)
	centBytes := int64(8 * dim * k)
	partBytes := int64(8*dim*k) + int64(8*k)

	bld := p.builder("kmeans")
	points := make([]task.ObjectID, bands)
	parts := make([]task.ObjectID, bands)
	for b := 0; b < bands; b++ {
		points[b] = bld.Object(indexed("pts", b), pointBandBytes)
		parts[b] = bld.ObjectOpt(indexed("part", b), partBytes, false)
	}
	cent := bld.ObjectOpt("centroids", centBytes, false)

	// Real state.
	var (
		pts  []float64
		c    []float64
		sums [][]float64 // per band: k*dim accumulators + k counts
	)
	if p.Kernels {
		rng := newRng(29)
		pts = make([]float64, n*dim)
		for i := range pts {
			pts[i] = rng.float() * 10
		}
		c = make([]float64, k*dim)
		copy(c, pts[:k*dim]) // first k points seed the centroids
		sums = make([][]float64, bands)
		for b := range sums {
			sums[b] = make([]float64, k*dim+k)
		}
	}

	assign := func(b int) {
		s := sums[b]
		for i := range s {
			s[i] = 0
		}
		lo, hi := b*perBand, (b+1)*perBand
		for i := lo; i < hi; i++ {
			best, bestD := 0, math.MaxFloat64
			for j := 0; j < k; j++ {
				var d float64
				for t := 0; t < dim; t++ {
					diff := pts[i*dim+t] - c[j*dim+t]
					d += diff * diff
				}
				if d < bestD {
					best, bestD = j, d
				}
			}
			for t := 0; t < dim; t++ {
				s[best*dim+t] += pts[i*dim+t]
			}
			s[k*dim+best]++
		}
	}
	update := func() {
		for j := 0; j < k; j++ {
			var cnt float64
			acc := make([]float64, dim)
			for b := 0; b < bands; b++ {
				s := sums[b]
				cnt += s[k*dim+j]
				for t := 0; t < dim; t++ {
					acc[t] += s[j*dim+t]
				}
			}
			if cnt > 0 {
				for t := 0; t < dim; t++ {
					c[j*dim+t] = acc[t] / cnt
				}
			}
		}
	}

	for it := 0; it < iters; it++ {
		for b := 0; b < bands; b++ {
			b := b
			var run func()
			if p.Kernels {
				run = func() { assign(b) }
			}
			bld.Submit("assign", cpuSec(float64(perBand*k*dim*3)), []task.Access{
				{Obj: points[b], Mode: task.In, Loads: lines(pointBandBytes), MLP: 8},
				{Obj: cent, Mode: task.In, Loads: lines(centBytes), MLP: 2},
				{Obj: parts[b], Mode: task.Out, Loads: lines(partBytes), Stores: lines(partBytes), MLP: 2},
			}, run)
		}
		updAcc := make([]task.Access, 0, bands+1)
		for b := 0; b < bands; b++ {
			updAcc = append(updAcc, task.Access{Obj: parts[b], Mode: task.In, Loads: lines(partBytes), MLP: 2})
		}
		updAcc = append(updAcc, task.Access{Obj: cent, Mode: task.InOut,
			Loads: lines(centBytes), Stores: lines(centBytes), MLP: 1})
		var run func()
		if p.Kernels {
			run = update
		}
		bld.Submit("update", cpuSec(float64(k*dim*bands)), updAcc, run)
	}

	built := Built{Graph: bld.Build()}
	if p.Kernels {
		built.Check = func() error {
			// Replay serially from the same seed and compare centroids.
			rng := newRng(29)
			rp := make([]float64, n*dim)
			for i := range rp {
				rp[i] = rng.float() * 10
			}
			rc := make([]float64, k*dim)
			copy(rc, rp[:k*dim])
			// The replay mirrors the banded accumulation exactly so the
			// floating-point summation order matches bit for bit.
			rs := make([][]float64, bands)
			for b := range rs {
				rs[b] = make([]float64, k*dim+k)
			}
			for it := 0; it < iters; it++ {
				for b := 0; b < bands; b++ {
					s := rs[b]
					for i := range s {
						s[i] = 0
					}
					lo, hi := b*perBand, (b+1)*perBand
					for i := lo; i < hi; i++ {
						best, bestD := 0, math.MaxFloat64
						for j := 0; j < k; j++ {
							var d float64
							for t := 0; t < dim; t++ {
								diff := rp[i*dim+t] - rc[j*dim+t]
								d += diff * diff
							}
							if d < bestD {
								best, bestD = j, d
							}
						}
						for t := 0; t < dim; t++ {
							s[best*dim+t] += rp[i*dim+t]
						}
						s[k*dim+best]++
					}
				}
				for j := 0; j < k; j++ {
					var cnt float64
					acc := make([]float64, dim)
					for b := 0; b < bands; b++ {
						s := rs[b]
						cnt += s[k*dim+j]
						for t := 0; t < dim; t++ {
							acc[t] += s[j*dim+t]
						}
					}
					if cnt > 0 {
						for t := 0; t < dim; t++ {
							rc[j*dim+t] = acc[t] / cnt
						}
					}
				}
			}
			if d := maxAbsDiff(c, rc); d > 1e-9 {
				return fmt.Errorf("kmeans: centroids differ from serial by %g", d)
			}
			return nil
		}
	}
	return built
}
