// Cluster-scale fault schedules. A ClusterSchedule is one seeded script
// for a whole multi-node job: whole-node outage windows plus per-node
// device-fault schedules (degradation windows, copy stalls, transient
// copy failures, tier outages) derived deterministically from the single
// cluster seed. Every rank on a node sees the node's device schedule, so
// co-located ranks degrade together; node outages fan out to every rank
// on the node and are handled by the cluster layer's failover path, not
// by the per-rank injector.
//
// The derivation is stable by construction: RankSchedule(r) depends only
// on (Seed, DevRate, Horizon, Tiers, r/RanksPerNode), and each derived
// schedule carries a "cluster:<spec>;rank=<r>" spec string, so a faulty
// rank recording replays bit-for-bit through the ordinary ParseSpec
// path with no cluster state in hand.

package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// NodeOutage is one whole-node failure window: the node dies at At and
// rejoins the cluster at Until. Ranks running on the node at At lose
// their in-flight work and fail over to surviving nodes.
type NodeOutage struct {
	Node  int
	At    float64
	Until float64
}

// ClusterSchedule scripts faults for a whole multi-node job. The zero
// value (and nil) injects nothing. Spec, when non-empty, is the
// ParseClusterSpec string the schedule was built from.
type ClusterSchedule struct {
	Seed         int64
	Spec         string
	Nodes        int
	RanksPerNode int
	Tiers        int
	// Horizon bounds fault start times, in virtual seconds.
	Horizon float64
	// NodeRate is whole-node outages per node per simulated second.
	NodeRate float64
	// DevRate is device-fault events per node per simulated second,
	// fed to Random for each node's schedule.
	DevRate float64
	// Outages are the scripted node failures, sorted by At.
	Outages []NodeOutage
}

// Empty reports whether the schedule injects nothing anywhere: no node
// outages and per-node device schedules that would have zero events.
func (cs *ClusterSchedule) Empty() bool {
	if cs == nil {
		return true
	}
	return len(cs.Outages) == 0 && int(cs.DevRate*cs.Horizon+0.5) == 0
}

// String returns the canonical spec ("" for nil), the inverse of
// ParseClusterSpec.
func (cs *ClusterSchedule) String() string {
	if cs == nil {
		return ""
	}
	return cs.Spec
}

// Validate checks the schedule against a cluster of the given shape.
func (cs *ClusterSchedule) Validate(nodes, ranksPerNode int) error {
	if cs == nil {
		return nil
	}
	if cs.Nodes != nodes || cs.RanksPerNode != ranksPerNode {
		return fmt.Errorf("fault: cluster schedule derived for %dx%d ranks, cluster is %dx%d",
			cs.Nodes, cs.RanksPerNode, nodes, ranksPerNode)
	}
	if cs.Tiers < 2 {
		return fmt.Errorf("fault: cluster schedule needs >= 2 tiers, got %d", cs.Tiers)
	}
	if cs.NodeRate < 0 || cs.DevRate < 0 || cs.Horizon < 0 {
		return fmt.Errorf("fault: cluster schedule has negative rate or horizon")
	}
	for i, o := range cs.Outages {
		if o.Node < 0 || o.Node >= nodes {
			return fmt.Errorf("fault: outage %d: node %d out of range [0,%d)", i, o.Node, nodes)
		}
		if o.At < 0 || o.Until <= o.At {
			return fmt.Errorf("fault: outage %d: bad window [%g,%g)", i, o.At, o.Until)
		}
	}
	return nil
}

// nodeSeed mixes the cluster seed with a node index (splitmix64 finisher)
// so sibling nodes get decorrelated device schedules from one seed.
func (cs *ClusterSchedule) nodeSeed(node int) int64 {
	x := uint64(cs.Seed) + 0x9E3779B97F4A7C15*uint64(node+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// RankSchedule derives the device-fault schedule rank sees: its node's
// schedule (every rank on a node shares one set of device faults), with
// a spec that reconstructs it through ParseSpec for replay. Node outages
// are not part of it — those are the cluster layer's to handle.
func (cs *ClusterSchedule) RankSchedule(rank int) *Schedule {
	if cs == nil {
		return nil
	}
	node := rank / cs.RanksPerNode
	s := Random(cs.nodeSeed(node), cs.DevRate, cs.Horizon, cs.Tiers)
	s.Spec = fmt.Sprintf("cluster:%s;rank=%d", cs.Spec, rank)
	return s
}

// RandomCluster derives a cluster schedule from one seed: about
// nodeRate*horizon outages per node, each knocking a random node out for
// a window, plus a devRate device-fault schedule per node (via Random).
// The same arguments always yield the same schedule, and its Spec
// round-trips through ParseClusterSpec.
func RandomCluster(seed int64, nodeRate, devRate, horizon float64, nodes, ranksPerNode, tiers int) *ClusterSchedule {
	if tiers < 2 {
		tiers = 2
	}
	cs := &ClusterSchedule{
		Seed:         seed,
		Nodes:        nodes,
		RanksPerNode: ranksPerNode,
		Tiers:        tiers,
		Horizon:      horizon,
		NodeRate:     nodeRate,
		DevRate:      devRate,
	}
	cs.Spec = fmt.Sprintf("nodes=%d,rpn=%d,node-rate=%g,dev-rate=%g,seed=%d,horizon=%g,tiers=%d",
		nodes, ranksPerNode, nodeRate, devRate, seed, horizon, tiers)
	count := int(nodeRate*horizon*float64(nodes) + 0.5)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < count; i++ {
		at := rng.Float64() * horizon
		window := (0.1 + 0.2*rng.Float64()) * horizon
		cs.Outages = append(cs.Outages, NodeOutage{
			Node:  rng.Intn(nodes),
			At:    at,
			Until: at + window,
		})
	}
	sort.SliceStable(cs.Outages, func(i, j int) bool { return cs.Outages[i].At < cs.Outages[j].At })
	return cs
}

// ParseClusterSpec builds a cluster schedule from a flag-style spec:
//
//	nodes=4,rpn=2,node-rate=0.5,dev-rate=2,seed=7,horizon=1.5[,tiers=3]
//
// delegating to RandomCluster. Empty string and "none" mean no faults
// (nil schedule). rpn defaults to 1, tiers to 2, rates to 0; nodes and
// horizon are required.
func ParseClusterSpec(spec string) (*ClusterSchedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	var (
		nodeRate, devRate, horizon float64
		seed                       int64
		nodes                      int
		rpn                        = 1
		tiers                      = 2
		haveHorizon                bool
	)
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad cluster spec element %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "nodes":
			nodes, err = strconv.Atoi(v)
		case "rpn":
			rpn, err = strconv.Atoi(v)
		case "node-rate":
			nodeRate, err = strconv.ParseFloat(v, 64)
		case "dev-rate":
			devRate, err = strconv.ParseFloat(v, 64)
		case "seed":
			seed, err = strconv.ParseInt(v, 10, 64)
		case "horizon":
			horizon, err = strconv.ParseFloat(v, 64)
			haveHorizon = true
		case "tiers":
			tiers, err = strconv.Atoi(v)
		default:
			return nil, fmt.Errorf("fault: unknown cluster spec key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad cluster spec value %q: %v", kv, err)
		}
	}
	if nodes < 1 {
		return nil, fmt.Errorf("fault: cluster spec %q needs nodes >= 1", spec)
	}
	if rpn < 1 {
		return nil, fmt.Errorf("fault: cluster spec %q needs rpn >= 1", spec)
	}
	if !haveHorizon {
		return nil, fmt.Errorf("fault: cluster spec %q needs horizon=", spec)
	}
	if !nonNegFinite(nodeRate) || !nonNegFinite(devRate) || !nonNegFinite(horizon) {
		return nil, fmt.Errorf("fault: cluster spec %q needs finite, non-negative rates and horizon", spec)
	}
	if n := max(nodeRate*float64(nodes), devRate) * horizon; n > MaxEvents {
		return nil, fmt.Errorf("fault: cluster spec %q asks for %.3g outages or device events per node, above the cap of %d", spec, n, MaxEvents)
	}
	return RandomCluster(seed, nodeRate, devRate, horizon, nodes, rpn, tiers), nil
}

// parseClusterRankSpec handles the "cluster:<cluster spec>;rank=<r>"
// specs that RankSchedule stamps on derived schedules, so per-rank
// recordings of faulty cluster runs reconstruct through ParseSpec.
func parseClusterRankSpec(spec string) (*Schedule, error) {
	cspec, rankStr, ok := strings.Cut(spec, ";rank=")
	if !ok {
		return nil, fmt.Errorf("fault: cluster rank spec %q needs a ;rank= suffix", spec)
	}
	cs, err := ParseClusterSpec(cspec)
	if err != nil {
		return nil, err
	}
	if cs == nil {
		return nil, fmt.Errorf("fault: cluster rank spec %q has an empty cluster spec", spec)
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		return nil, fmt.Errorf("fault: bad rank in cluster spec %q: %v", spec, err)
	}
	if rank < 0 || rank >= cs.Nodes*cs.RanksPerNode {
		return nil, fmt.Errorf("fault: rank %d out of range [0,%d) in cluster spec %q",
			rank, cs.Nodes*cs.RanksPerNode, spec)
	}
	return cs.RankSchedule(rank), nil
}
