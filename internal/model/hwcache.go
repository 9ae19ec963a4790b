package model

import (
	"repro/internal/mem"
	"repro/internal/task"
)

// HWCacheDemand computes a task's demand under Memory Mode: DRAM is a
// hardware-managed cache in front of NVM with hit ratio `hit`. Unlike
// software placement, caching costs extra traffic on both devices:
//
//   - a load hit reads DRAM; a load miss reads NVM and fills the line
//     into DRAM (a DRAM write);
//   - a store hit writes DRAM; a store miss first fills from NVM, then
//     writes DRAM; dirty lines eventually write back to NVM.
//
// This is why Memory Mode cannot beat an equally-accurate software
// placement: the cache pays fill and write-back bandwidth that explicit
// placement avoids.
func HWCacheDemand(t *task.Task, h mem.HMS, hit float64) Demand {
	var d Demand
	d.FillHWCache(t, h, hit)
	return d
}

// FillHWCache overwrites d with HWCacheDemand(t, h, hit), reusing d's
// ObjSecs array.
func (d *Demand) FillHWCache(t *task.Task, h mem.HMS, hit float64) {
	if hit < 0 {
		hit = 0
	}
	if hit > 1 {
		hit = 1
	}
	d.reset(t)
	// The cache pair is the fastest tier in front of the slowest; middle
	// tiers of an N-tier machine are not part of Memory Mode.
	fastT, slowT := h.Fastest(), mem.Tier(0)
	dram, nvm := h.Device(fastT), h.Device(slowT)
	for _, a := range t.Accesses {
		mlp := a.MLP
		if mlp < 1 {
			mlp = 1
		}
		loads, stores := float64(a.Loads), float64(a.Stores)
		missL := loads * (1 - hit)
		missS := stores * (1 - hit)

		// Per-device read/write line counts.
		dramReads := loads*hit + stores*hit // hits (stores read-modify in cache)
		dramWrites := stores + missL        // all stores land in cache; load misses fill
		nvmReads := missL + missS           // misses fetch from NVM
		nvmWrites := missS                  // dirty write-backs (steady state ~ store misses)

		latD := (dramReads*dram.ReadLatSec() + dramWrites*dram.WriteLatSec()) / mlp
		latN := (nvmReads*nvm.ReadLatSec() + nvmWrites*nvm.WriteLatSec()) / mlp
		bwD := dramReads*mem.CacheLineSize/dram.ReadBW + dramWrites*mem.CacheLineSize/dram.WriteBW
		bwN := nvmReads*mem.CacheLineSize/nvm.ReadBW + nvmWrites*mem.CacheLineSize/nvm.WriteBW

		d.DevSec[fastT] += bwD
		d.LatSec[fastT] += latD
		d.DevSec[slowT] += bwN
		d.LatSec[slowT] += latN
		d.BytesRead[fastT] += dramReads * mem.CacheLineSize
		d.BytesWritten[fastT] += dramWrites * mem.CacheLineSize
		d.BytesRead[slowT] += nvmReads * mem.CacheLineSize
		d.BytesWritten[slowT] += nvmWrites * mem.CacheLineSize
		objTime := bwD + bwN
		if latD+latN > objTime {
			objTime = latD + latN
		}
		d.addObjSec(a.Obj, objTime)
		d.memSec += objTime
	}
}
