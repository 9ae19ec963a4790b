package core

import (
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/task"
)

// chunkPlan decides how many chunks each object splits into, indexed by
// object ID (0 = whole), in the runner's pooled table. Only the Tahoe
// policy with the chunking technique partitions; only chunkable
// (regular, one-dimensional-access) objects qualify, and only when they
// are large relative to DRAM — the paper's conservative criterion.
func (r *runner) chunkPlan() []int {
	if r.cfg.Policy != Tahoe || !r.cfg.Tech.Chunking {
		return nil
	}
	target := r.cfg.ChunkTarget
	if target <= 0 {
		target = r.cfg.HMS.Capacity(r.fastTier) / 8
	}
	if target <= 0 {
		return nil
	}
	maxChunks := r.cfg.MaxChunks
	if maxChunks < 2 {
		maxChunks = 16
	}
	plan := reuse(r.chunks, len(r.g.Objects))
	r.chunks = plan
	for _, o := range r.g.Objects {
		if !o.Chunkable || o.Size <= r.cfg.HMS.Capacity(r.fastTier)/2 {
			continue
		}
		n := int((o.Size + target - 1) / target)
		if n > maxChunks {
			n = maxChunks
		}
		if n > 1 {
			plan[o.ID] = n
		}
	}
	return plan
}

// applyInitialPlacement seeds DRAM at time zero according to the policy.
// Initial placement is free: the data is allocated on its starting tier,
// not copied there.
func (r *runner) applyInitialPlacement() error {
	switch r.cfg.Policy {
	case NVMOnly:
		return nil // everything already starts in NVM

	case DRAMOnly:
		for _, o := range r.g.Objects {
			for _, ref := range r.st.Refs(o.ID) {
				if err := r.st.Move(ref, r.st.Fastest()); err != nil {
					return err
				}
			}
		}
		return nil

	case FirstTouch:
		// Fill DRAM in first-use order: the order objects first appear in
		// the submission stream.
		r.touched = reuse(r.touched, len(r.g.Objects))
		for _, t := range r.g.Tasks {
			for _, a := range t.Accesses {
				if r.touched[a.Obj] {
					continue
				}
				r.touched[a.Obj] = true
				r.placeIfFits(a.Obj)
			}
		}
		return nil

	case XMem:
		return r.placeXMem()

	case HWCache:
		r.hwFrac = r.hwCacheHitRatio()
		return nil

	case Pinned:
		for _, o := range r.g.Objects {
			if r.cfg.Pin(o.Name) {
				r.placeIfFits(o.ID)
			}
		}
		return nil

	case PhaseBased, Tahoe:
		if r.cfg.Policy == Tahoe && !r.cfg.Tech.InitialPlacement {
			return nil
		}
		return r.placeByReferenceCount()
	}
	return nil
}

// placeIfFits places each of an object's chunks, free of charge, on the
// fastest tier with room for it; a chunk that fits on no tier above the
// slow default tier 0 stays there.
func (r *runner) placeIfFits(obj task.ObjectID) {
	for _, ref := range r.st.Refs(obj) {
		for t := r.st.Fastest(); t >= 1; t-- {
			if r.st.CanMoveTo(ref, t) {
				_ = r.st.Move(ref, t)
				break
			}
		}
	}
}

// placeXMem is the offline-profiling baseline: exact whole-run per-object
// traffic (the oracle a PIN-based profiler approximates), one knapsack,
// no read/write distinction, no migrations afterwards.
func (r *runner) placeXMem() error {
	traffic := r.g.ObjectTraffic()
	params := model.Params{HMS: r.cfg.HMS, DistinguishRW: false}
	var items []placement.Item
	for _, o := range r.g.Objects {
		if len(r.g.Users(o.ID)) == 0 {
			continue // no task touches it: nothing to profile
		}
		agg := traffic[o.ID]
		// Offline profiling classifies the aggregate pattern; the oracle
		// uses the true per-access character via the MLP-weighted mean:
		// a latency-bound object is weighed by the latency equation, any
		// other by the bandwidth equation.
		loads, stores := float64(agg.Loads), float64(agg.Stores)
		lat, bw := model.AccessTime(loads, stores, agg.MLP, r.cfg.HMS.Device(0))
		w := params.BenefitBWBetween(loads, stores, 0, r.fastTier)
		if lat > bw {
			w = params.BenefitLatBetween(loads, stores, 0, r.fastTier)
		}
		items = append(items, placement.Item{
			Ref:    heap.ChunkRef{Obj: o.ID},
			Size:   o.Size,
			Weight: w,
		})
	}
	chosen := placement.Knapsack(items, r.cfg.HMS.Capacity(r.fastTier), placement.DefaultGranularity)
	for _, i := range chosen {
		obj := items[i].Ref.Obj
		for _, ref := range r.st.Refs(obj) {
			if err := r.st.Move(ref, r.st.Fastest()); err != nil {
				return err
			}
		}
	}
	r.plan = planResult{kind: "static"}
	return nil
}

// placeByReferenceCount is the paper's initial-placement optimization:
// before execution, a compiler-analysis-style estimate of per-object
// memory reference counts (no cache modeling, no sensitivity analysis —
// just reference totals) fills DRAM with the most-referenced objects.
func (r *runner) placeByReferenceCount() error {
	for _, obj := range r.g.RefOrder() {
		r.placeIfFits(obj)
	}
	return nil
}

// hwCacheHitRatio models Memory Mode: DRAM as a direct-mapped,
// page-granular cache of NVM. With W pages of application working set
// mapped onto F frames, a page's expected residency is F/W when the
// working set exceeds the cache; conflict and cold misses cap the hit
// ratio below one even when it fits.
func (r *runner) hwCacheHitRatio() float64 {
	const page = 4096 // cache-block granularity
	frames := r.cfg.HMS.Capacity(r.fastTier) / page
	var pages int64
	for _, o := range r.g.Objects {
		pages += (o.Size + page - 1) / page
	}
	if frames <= 0 || pages == 0 {
		return 0
	}
	const peak = 0.95 // cold+conflict floor
	if pages <= frames {
		return peak
	}
	return peak * float64(frames) / float64(pages)
}
