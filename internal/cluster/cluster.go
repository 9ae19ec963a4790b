// Package cluster simulates multi-node strong-scaling runs — the paper's
// Edison experiments. The fixed global problem is decomposed across
// ranks; every rank is one runtime instance on its node's heterogeneous
// memory; ranks sharing a node ration the node's DRAM allowance through
// the user-level space service (package heap); and the per-iteration halo
// exchanges cost a latency-plus-bandwidth network term. Each rank's
// execution is an independent deterministic simulation, so a whole
// "cluster" runs on one laptop core in milliseconds.
//
// With a fault.ClusterSchedule attached, the same job runs on a degraded
// machine: every rank on a node shares the node's seeded device-fault
// schedule, and scripted whole-node outages kill the ranks still running
// there. A killed rank fails over to a surviving node: the checkpoint it
// restarts from is exactly its NVM-resident state (persistent memory
// survives the crash), re-staged over the interconnect at network cost,
// while its DRAM-resident state is lost and the corresponding share of
// its progress re-executes on the host — so NVM residency is quantified
// as a recovery advantage, per the paper's persistence argument. Hosts
// re-ration their DRAM allowance across resident plus adopted ranks
// (the Reration hook), the degraded-cluster analogue of the space
// service's admission dance.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/heap"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Network is the interconnect's first-order cost model.
type Network struct {
	// LatencySec is the per-message cost (software + wire).
	LatencySec float64
	// Bandwidth is the per-link bandwidth in bytes/second.
	Bandwidth float64
}

// EdisonNetwork approximates a Cray Aries-class interconnect.
func EdisonNetwork() Network {
	return Network{LatencySec: 2e-6, Bandwidth: 8e9}
}

// Config describes one strong-scaling job.
type Config struct {
	Nodes        int
	RanksPerNode int
	// NodeDRAM is each node's DRAM allowance, rationed among its ranks by
	// the space service.
	NodeDRAM int64
	// NVM is the node's NVM device (capacity is effectively unbounded).
	NVM mem.DeviceSpec
	// Net is the interconnect model.
	Net Network
	// Rank configures each rank's runtime; its HMS is overwritten with
	// the rank's share of the node resources.
	Rank core.Config
	// Faults, if non-nil and non-empty, scripts cluster-scale fault
	// injection: per-node device faults fan out to every rank on the
	// node, and whole-node outages trigger the failover path. nil — and,
	// bit-identically, an empty schedule — reproduces the fault-free job
	// exactly.
	Faults *fault.ClusterSchedule
	// Reration, if non-nil, overrides the degraded-cluster re-rationing
	// policy: when a node is quarantined its ranks are adopted elsewhere,
	// and each host's per-rank DRAM allowance is re-rationed as
	// Reration(nodeDRAM, baseRanks, adopted). The default rations evenly:
	// nodeDRAM / (baseRanks + adopted).
	Reration func(nodeDRAM int64, baseRanks, adopted int) int64
}

// MaxRanks bounds a job's nodes, its ranks per node and its rank count:
// every rank builds and simulates its own graph, and E13 scales to 16
// nodes. The shape arrives from flags.
const MaxRanks = 1024

// Validate reports configuration errors. It bounds the job's shape
// before StrongScale sizes anything by it.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.RanksPerNode < 1 {
		return fmt.Errorf("cluster: %d nodes x %d ranks", c.Nodes, c.RanksPerNode)
	}
	// Each factor is bounded first, so their product cannot overflow.
	if c.Nodes > MaxRanks || c.RanksPerNode > MaxRanks || c.Nodes*c.RanksPerNode > MaxRanks {
		return fmt.Errorf("cluster: %d nodes x %d ranks, above the cap of %d ranks", c.Nodes, c.RanksPerNode, MaxRanks)
	}
	if c.NodeDRAM < 0 {
		return fmt.Errorf("cluster: negative node DRAM")
	}
	if c.NodeDRAM > 0 && c.NodeDRAM/int64(c.RanksPerNode) == 0 {
		return fmt.Errorf("cluster: node DRAM %d B rations to 0 bytes per rank across %d ranks/node — raise NodeDRAM or lower RanksPerNode",
			c.NodeDRAM, c.RanksPerNode)
	}
	if c.Net.Bandwidth <= 0 || c.Net.LatencySec < 0 {
		return fmt.Errorf("cluster: bad network %+v", c.Net)
	}
	if err := c.Faults.Validate(c.Nodes, c.RanksPerNode); err != nil {
		return err
	}
	return nil
}

// rationShare applies the re-rationing policy for a node hosting its
// baseRanks resident ranks plus adopted failover ranks.
func (c Config) rationShare(adopted int) int64 {
	if c.Reration != nil {
		return c.Reration(c.NodeDRAM, c.RanksPerNode, adopted)
	}
	return c.NodeDRAM / int64(c.RanksPerNode+adopted)
}

// Failover records one rank's recovery from a node outage.
type Failover struct {
	Rank     int
	FromNode int
	ToNode   int
	// AtSec is when the node died; ProgressFrac how far through its work
	// the rank was at that instant.
	AtSec        float64
	ProgressFrac float64
	// NVMResidentBytes is the checkpoint: the state that survived the
	// crash in persistent memory and was re-staged over the network.
	NVMResidentBytes int64
	// RestageSec prices the checkpoint transfer; RedoSec is the work
	// re-executed on the host (the DRAM-resident share of progress was
	// lost). DoneSec = AtSec + RestageSec + RedoSec.
	RestageSec float64
	RedoSec    float64
	DoneSec    float64
}

// Result is one job's outcome.
type Result struct {
	// JobSec is the job completion time: the slowest rank plus the
	// communication the iterative structure cannot hide.
	JobSec float64
	// ComputeSec is the slowest rank's simulated time, including failover
	// recovery when a fault schedule is attached.
	ComputeSec float64
	// CommSec is the total per-rank communication time.
	CommSec float64
	// PerRank holds every rank's runtime result (the nominal run; a
	// failed rank's recovery is accounted in Failovers).
	PerRank []core.Result

	// Fault-tolerance accounting — all zero without a fault schedule.
	//
	// NodeOutages counts outage windows that opened; NodeReadmits the
	// matching closes (scripted windows always close, so the pair is
	// equal by construction and asserted by the chaos suite).
	NodeOutages  int
	NodeReadmits int
	// FailedRanks counts ranks killed mid-run by an outage; each one is
	// either recovered (one Failovers entry) or lost (LostRanks), so
	// FailedRanks == len(Failovers) + LostRanks.
	FailedRanks int
	Failovers   []Failover
	// LostRanks counts failed ranks no surviving node could adopt;
	// LostWorkSec is their full nominal compute, gone with them.
	LostRanks   int
	LostWorkSec float64
	// RestageSec / ReexecSec total the recovery bill across failovers.
	RestageSec float64
	ReexecSec  float64
	// DeviceQuarantines / DeviceReadmits sum the ranks' tier quarantine
	// episodes (core.Result's Quarantines and Readmits) across the
	// cluster.
	DeviceQuarantines int
	DeviceReadmits    int
}

// StrongScale runs the distributed workload at the configured scale.
func StrongScale(d workloads.Distributed, p workloads.Params, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	ranks := cfg.Nodes * cfg.RanksPerNode
	faulty := !cfg.Faults.Empty()

	var res Result
	svcs := make([]*heap.Service, cfg.Nodes)
	rankTime := make([]float64, ranks)
	footprint := make([]int64, ranks)
	dramHW := make([]int64, ranks)
	for node := 0; node < cfg.Nodes; node++ {
		// The node's DRAM space service: each rank reserves its share up
		// front, exactly how the paper coordinates ranks without OS help.
		svc := heap.NewService(cfg.NodeDRAM)
		svcs[node] = svc
		share := cfg.NodeDRAM / int64(cfg.RanksPerNode)
		for r := 0; r < cfg.RanksPerNode; r++ {
			rank := node*cfg.RanksPerNode + r
			client := fmt.Sprintf("rank%d", rank)
			if share > 0 {
				if err := svc.Reserve(client, share); err != nil {
					return Result{}, fmt.Errorf("cluster: %w", err)
				}
			}

			built := d.BuildRank(rank, ranks, p)
			rc := cfg.Rank
			rc.HMS = mem.NewHMS(mem.DRAM(), cfg.NVM, share)
			if faulty {
				// Every rank on the node shares the node's derived device
				// schedule; the injector is only armed when it has events,
				// preserving empty ≡ nil bit-identity.
				if rs := cfg.Faults.RankSchedule(rank); !rs.Empty() {
					rc.Faults = rs
				}
			}
			rr, err := core.Run(built.Graph, rc)
			if err != nil {
				return Result{}, fmt.Errorf("cluster: rank %d: %w", rank, err)
			}
			res.PerRank = append(res.PerRank, rr)
			res.DeviceQuarantines += rr.Quarantines
			res.DeviceReadmits += rr.Readmits
			rankTime[rank] = rr.Time
			dramHW[rank] = rr.DRAMHighWaterBytes
			for _, o := range built.Graph.Objects {
				footprint[rank] += o.Size
			}
			if rr.Time > res.ComputeSec {
				res.ComputeSec = rr.Time
			}
			if share > 0 {
				if err := svc.Release(client, share); err != nil {
					return Result{}, fmt.Errorf("cluster: %w", err)
				}
			}
		}
	}

	if faulty && len(cfg.Faults.Outages) > 0 {
		if err := runFailovers(d, p, cfg, &res, svcs, rankTime, footprint, dramHW); err != nil {
			return Result{}, err
		}
	}
	for node, svc := range svcs {
		if svc.InUse() != 0 {
			return Result{}, fmt.Errorf("cluster: node %d leaked %d bytes of DRAM allowance", node, svc.InUse())
		}
	}

	iters := d.Iterations(p)
	bytes := d.CommBytesPerIter(ranks, p)
	if ranks > 1 {
		res.CommSec = float64(iters) * (cfg.Net.LatencySec + float64(bytes)/cfg.Net.Bandwidth)
	}
	res.JobSec = res.ComputeSec + res.CommSec
	return res, nil
}

// runFailovers processes the schedule's node outages in At order: each
// outage kills the ranks still computing on the node, and each killed
// rank restarts on a surviving node from its NVM-resident checkpoint.
// Recovery of re-executed work is not itself failure-prone (one level of
// failover; a host that later dies does not cascade).
func runFailovers(d workloads.Distributed, p workloads.Params, cfg Config, res *Result,
	svcs []*heap.Service, rankTime []float64, footprint, dramHW []int64) error {
	ranks := cfg.Nodes * cfg.RanksPerNode
	failed := make([]bool, ranks)
	adopted := make([]int, cfg.Nodes)
	// aliveAt reports whether a node is up at time t under the schedule.
	aliveAt := func(node int, t float64) bool {
		for _, o := range cfg.Faults.Outages {
			if o.Node == node && o.At <= t && t < o.Until {
				return false
			}
		}
		return true
	}
	hostCursor := 0
	for _, o := range cfg.Faults.Outages {
		res.NodeOutages++
		res.NodeReadmits++ // every scripted window closes at Until
		for r := 0; r < cfg.RanksPerNode; r++ {
			rank := o.Node*cfg.RanksPerNode + r
			// Ranks already done at the outage instant survive (their halo
			// contributions are exchanged per iteration, not held on-node),
			// and a rank only dies once — a back-to-back outage on the same
			// node finds nothing left to kill.
			if failed[rank] || rankTime[rank] <= o.At {
				continue
			}
			failed[rank] = true
			res.FailedRanks++

			// Pick a surviving host round-robin so adoptions spread.
			host := -1
			for i := 0; i < cfg.Nodes; i++ {
				cand := (hostCursor + i) % cfg.Nodes
				if cand != o.Node && aliveAt(cand, o.At) {
					host = cand
					break
				}
			}
			if host < 0 {
				res.LostRanks++
				res.LostWorkSec += rankTime[rank]
				continue
			}
			hostCursor = host + 1
			adopted[host]++

			// The checkpoint is the rank's NVM-resident state: persistent
			// memory survives the crash, DRAM does not. Progress backed by
			// the checkpoint is salvaged; the DRAM-backed share re-executes.
			foot := footprint[rank]
			nvmBytes := foot - dramHW[rank]
			if nvmBytes < 0 {
				nvmBytes = 0
			}
			nvmShare := 0.0
			if foot > 0 {
				nvmShare = float64(nvmBytes) / float64(foot)
			}
			progress := o.At / rankTime[rank]
			restage := cfg.Net.LatencySec + float64(nvmBytes)/cfg.Net.Bandwidth

			// The host re-rations its DRAM allowance across resident plus
			// adopted ranks and runs the recovery under the tighter share.
			share := cfg.rationShare(adopted[host])
			client := fmt.Sprintf("rank%d-failover", rank)
			if share > 0 {
				if err := svcs[host].Reserve(client, share); err != nil {
					return fmt.Errorf("cluster: failover rank %d: %w", rank, err)
				}
			}
			built := d.BuildRank(rank, ranks, p)
			rc := cfg.Rank
			rc.HMS = mem.NewHMS(mem.DRAM(), cfg.NVM, share)
			rr, err := core.Run(built.Graph, rc)
			if err != nil {
				return fmt.Errorf("cluster: failover rank %d: %w", rank, err)
			}
			if share > 0 {
				if err := svcs[host].Release(client, share); err != nil {
					return fmt.Errorf("cluster: failover rank %d: %w", rank, err)
				}
			}
			redo := (1 - nvmShare*progress) * rr.Time
			done := o.At + restage + redo
			res.Failovers = append(res.Failovers, Failover{
				Rank: rank, FromNode: o.Node, ToNode: host,
				AtSec: o.At, ProgressFrac: progress,
				NVMResidentBytes: nvmBytes,
				RestageSec:       restage, RedoSec: redo, DoneSec: done,
			})
			res.RestageSec += restage
			res.ReexecSec += redo
			if done > res.ComputeSec {
				res.ComputeSec = done
			}
		}
	}
	return nil
}
