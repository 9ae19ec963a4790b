package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/workloads"
)

// opSpec is one generated input: everything a run needs, in the same
// spec strings the CLI flags and the serve request schema accept, so one
// op means the same thing in-process and posted over HTTP.
type opSpec struct {
	App      string
	Scale    int
	Graph    *serve.GraphSpec
	Policy   string
	Machine  cliutil.MachineSpec
	Sampling string
	Faults   string
	Feedback string
	Trace    bool
	// Counter is the machine a record-replay op replays its recording on
	// as the counterfactual.
	Counter *cliutil.MachineSpec
}

// benchApps fixes the graphs every workload draws from and each one's
// scale. The scales keep one managed run within a few milliseconds of
// host time, so a run of the benchmark covers thousands of ops.
var benchApps = []struct {
	name  string
	scale int
}{
	{"bfs", 5}, {"cg", 6}, {"cholesky", 6}, {"fft", 20}, {"heat", 6},
	{"kmeans", 4}, {"lu", 6}, {"pagerank", 4}, {"qr", 5}, {"sort", 20},
	{"sparselu", 8}, {"strassen", 1}, {"wave", 6},
}

// nvmDevices are the slow-tier devices a seed draws from.
var nvmDevices = []string{"bw:0.5", "bw:0.25", "lat:4", "optane"}

// faultHorizon is the simulated window fault schedules cover; the apps'
// DRAM-only makespans at benchApps scales fall inside it.
const faultHorizon = 0.05

// gen draws op parameters from one seed.
type gen struct {
	rng   *rand.Rand
	r     int              // replica being drawn
	cell  int              // op within the replica
	perms map[[2]int][]int // per (cell, parameter) order of range quarters
}

func newGen(seed int64, workload string) *gen {
	h := int64(0)
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return &gen{rng: rand.New(rand.NewSource(seed*1_000_003 + h)), perms: map[[2]int][]int{}}
}

// Parameters drawn per op, each from its own stratified stream.
const (
	pDevice = iota
	pDRAM
	pCXL
	pFaultRate
	pJitter
	pObjects
	pTasks
	pCounter // the counterfactual machine's parameters start here
)

// op starts the next op of the current replica.
func (g *gen) op() { g.cell++ }

// strat draws a parameter in [0, 1) stratified across replicas: the
// replicas of one op cell each draw from a different quarter of the
// range, in an order the seed permutes per cell and parameter. Every
// seed's list then covers each parameter's range evenly, so lists differ
// in their ops but hardly in their total cost.
func (g *gen) strat(param int) float64 {
	return (float64(g.level(param)) + g.rng.Float64()) / replicas
}

func (g *gen) level(param int) int {
	k := [2]int{g.cell, param}
	p, ok := g.perms[k]
	if !ok {
		p = g.rng.Perm(replicas)
		g.perms[k] = p
	}
	return p[g.r]
}

// machine draws a machine: each of the replicas' NVM devices once per
// cell, DRAM log-uniform in 32-256 MB (so the share of each graph's
// footprint that fits varies), and for 3 tiers a 64-320 MB CXL tier.
func (g *gen) machine(tiers, base int) cliutil.MachineSpec {
	m := cliutil.MachineSpec{
		NVM:    nvmDevices[g.level(base+pDevice)],
		DRAMMB: int64(math.Round(32 * math.Pow(8, g.strat(base+pDRAM)))),
	}
	if tiers == 3 {
		m.CXLMB = 64 + 32*int64(8*g.strat(base+pCXL))
	}
	return m
}

func (g *gen) faults(tiers int) string {
	rate := 100 + 300*g.strat(pFaultRate)
	return fmt.Sprintf("rate=%.0f,seed=%d,horizon=%g,tiers=%d", rate, 1+g.rng.Intn(1<<20), faultHorizon, tiers)
}

func (g *gen) sampling() string {
	return fmt.Sprintf("jitter=%.2f,seed=%d,adaptive", 0.1+0.4*g.strat(pJitter), 1+g.rng.Intn(1<<20))
}

func (g *gen) shuffle(ops []opSpec) []opSpec {
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// replicas is how many draws of each stratum cell an op list holds; it
// equals len(nvmDevices), so each cell runs on every device once.
const replicas = 4

// makeOps draws the op list of a workload. Every list is stratified: each
// app appears under each policy and variant replicas times, and the seed
// draws only the machine, the DRAM size, the fault and sampling streams
// and the op order. That keeps the host cost of one pass over the list
// nearly the same from seed to seed while every op still differs.
func makeOps(workload string, seed int64) ([]opSpec, error) {
	g := newGen(seed, workload)
	var ops []opSpec
	for r := 0; r < replicas; r++ {
		g.r, g.cell = r, 0
		more, err := g.stratum(workload)
		if err != nil {
			return nil, err
		}
		ops = append(ops, more...)
	}
	return g.shuffle(ops), nil
}

// stratum draws one op per (app, policy, variant) cell of a workload.
func (g *gen) stratum(workload string) ([]opSpec, error) {
	var ops []opSpec
	switch workload {
	case "managed":
		for _, a := range benchApps {
			for _, pol := range []string{"tahoe", "phase"} {
				base := opSpec{App: a.name, Scale: a.scale, Policy: pol}
				plain, tiered, noisy, faulty := base, base, base, base
				g.op()
				plain.Machine = g.machine(2, 0)
				g.op()
				tiered.Machine = g.machine(3, 0)
				g.op()
				noisy.Machine = g.machine(2, 0)
				noisy.Sampling = g.sampling()
				g.op()
				faulty.Machine = g.machine(2, 0)
				faulty.Faults = g.faults(2)
				faulty.Feedback = "on"
				ops = append(ops, plain, tiered, noisy, faulty)
			}
		}
	case "unmanaged":
		for _, a := range benchApps {
			for _, pol := range []string{"nvm", "firsttouch", "hwcache", "dram"} {
				for _, tiers := range []int{2, 3} {
					g.op()
					ops = append(ops, opSpec{App: a.name, Scale: a.scale, Policy: pol, Machine: g.machine(tiers, 0)})
				}
			}
		}
	case "record-replay":
		for ai, a := range benchApps {
			for pi, pol := range []string{"tahoe", "phase", "firsttouch"} {
				tiers := 2 + (ai+pi)%2
				g.op()
				o := opSpec{App: a.name, Scale: a.scale, Policy: pol, Machine: g.machine(tiers, 0)}
				cf := g.machine(tiers, pCounter)
				o.Counter = &cf
				if (ai+pi)%3 == 0 {
					o.Faults = g.faults(tiers)
				}
				ops = append(ops, o)
			}
		}
	case "serve-http":
		for ai, a := range benchApps {
			for pi, pol := range []string{"tahoe", "phase", "firsttouch", "nvm"} {
				g.op()
				o := opSpec{App: a.name, Scale: a.scale, Policy: pol, Machine: g.machine(2+(ai+pi)%2, 0)}
				if pol == "tahoe" && ai%2 == 0 {
					o.Feedback = "on"
				}
				ops = append(ops, o)
			}
			g.op()
			ops = append(ops, opSpec{Graph: g.inlineGraph(), Policy: "tahoe", Machine: g.machine(2, 0)})
		}
		for i := range ops {
			ops[i].Trace = i%4 == 0
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return ops, nil
}

// inlineGraph draws a random inline task graph in the serve request
// schema: a few objects of 1-48 MB and a few dozen tasks of four kinds.
func (g *gen) inlineGraph() *serve.GraphSpec {
	r := g.rng
	gs := &serve.GraphSpec{Name: fmt.Sprintf("inline%d", r.Intn(1<<20))}
	nobj := 6 + int(11*g.strat(pObjects))
	for i := 0; i < nobj; i++ {
		gs.Objects = append(gs.Objects, serve.ObjectSpec{
			Size:    (1 + r.Int63n(48)) * mem.MB,
			NoChunk: r.Intn(4) == 0,
		})
	}
	modes := []string{"in", "out", "inout"}
	ntask := 24 + int(41*g.strat(pTasks))
	for t := 0; t < ntask; t++ {
		ts := serve.TaskSpec{Kind: fmt.Sprintf("k%d", r.Intn(4)), CPUSec: 1e-4 + 2e-3*r.Float64()}
		first := r.Intn(nobj)
		for k := 0; k < 1+r.Intn(3); k++ {
			obj := (first + k) % nobj
			lines := gs.Objects[obj].Size / mem.CacheLineSize
			mode := modes[r.Intn(len(modes))]
			a := serve.AccessSpec{Obj: obj, Mode: mode, MLP: float64(1 + r.Intn(8))}
			if mode != "out" {
				a.Loads = 1 + int64(float64(lines)*(0.1+r.Float64()))
			}
			if mode != "in" {
				a.Stores = 1 + int64(float64(lines)*0.5*r.Float64())
			}
			ts.Accesses = append(ts.Accesses, a)
		}
		gs.Tasks = append(gs.Tasks, ts)
	}
	return gs
}

// buildGraph builds an op's graph the way the serve daemon does: a
// registered app at the op's scale, or the inline graph.
func buildGraph(o *opSpec) (*task.Graph, error) {
	if o.Graph != nil {
		return buildInline(o.Graph)
	}
	s, err := workloads.ByName(o.App)
	if err != nil {
		return nil, err
	}
	return s.Build(workloads.Params{Scale: o.Scale}).Graph, nil
}

// buildInline mirrors the serve request schema's graph semantics
// (object names o<i>, chunkable unless no_chunk, MLP 0 meaning 1) so the
// in-process reference runs exactly the graph the daemon builds.
func buildInline(gs *serve.GraphSpec) (*task.Graph, error) {
	name := gs.Name
	if name == "" {
		name = "inline"
	}
	b := task.NewBuilder(name)
	ids := make([]task.ObjectID, len(gs.Objects))
	for i, o := range gs.Objects {
		oname := o.Name
		if oname == "" {
			oname = fmt.Sprintf("o%d", i)
		}
		ids[i] = b.ObjectOpt(oname, o.Size, !o.NoChunk)
	}
	modes := map[string]task.AccessMode{"in": task.In, "out": task.Out, "inout": task.InOut}
	for _, t := range gs.Tasks {
		accs := make([]task.Access, len(t.Accesses))
		for i, a := range t.Accesses {
			mode, ok := modes[a.Mode]
			if !ok {
				return nil, fmt.Errorf("inline graph: access mode %q", a.Mode)
			}
			mlp := a.MLP
			if mlp == 0 {
				mlp = 1
			}
			accs[i] = task.Access{Obj: ids[a.Obj], Mode: mode, Loads: a.Loads, Stores: a.Stores, MLP: mlp}
		}
		b.Submit(t.Kind, t.CPUSec, accs, nil)
	}
	return b.Build(), nil
}

// calibrator returns an op machine's model constant factors. It is the
// benchmark's per-setup stand-in for calib.Shared: the factors depend on
// the slow device alone, so it keys on the NVM spec.
type calibrator func(h mem.HMS, nvm string) (cfBw, cfLat float64, err error)

// config builds an op's run configuration the way the serve daemon
// does, plus the op's sampling spec.
func config(o *opSpec, m cliutil.MachineSpec, cal calibrator) (core.Config, error) {
	h, err := m.Build()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(h)
	if cfg.Policy, err = core.PolicyByName(o.Policy); err != nil {
		return core.Config{}, err
	}
	if cfg.Faults, err = fault.ParseSpec(o.Faults); err != nil {
		return core.Config{}, err
	}
	if cfg.Feedback, err = cliutil.ParseFeedback(o.Feedback, feedback.Config{}); err != nil {
		return core.Config{}, err
	}
	if cfg.Prof, err = cliutil.ParseSampling(o.Sampling, prof.DefaultConfig()); err != nil {
		return core.Config{}, err
	}
	if cfg.CFBw, cfg.CFLat, err = cal(h, m.NVM); err != nil {
		return core.Config{}, err
	}
	return cfg, cfg.Validate()
}

// request is the op as a serve daemon request.
func (o *opSpec) request(tenant string) serve.RunRequest {
	return serve.RunRequest{
		Tenant: tenant, Workload: o.App, Graph: o.Graph, Scale: o.Scale,
		Policy: o.Policy, Machine: o.Machine, Faults: o.Faults,
		Feedback: o.Feedback, Trace: o.Trace,
	}
}
