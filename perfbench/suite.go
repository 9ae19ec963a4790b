package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/trace"
)

// outcome is what one op produced, reduced to comparable values: the
// simulated makespan's bits and, per workload, the counterfactual's
// bits, the recording's Save(Load(x)) digest, or the trace fingerprint.
type outcome struct {
	Bits    uint64
	CFBits  uint64
	Digest  [32]byte
	Events  int
	TraceID string
}

// suite is one workload's prepared state: the op list, its graphs and
// configurations, and the verification pass's reference outcomes.
type suite struct {
	workload string
	ops      []opSpec
	graphs   []*task.Graph
	cfgs     []core.Config
	cfCfgs   []core.Config // record-replay counterfactual machines
	refs     []outcome
	results  []core.Result // verification pass, for the simulated counters
	slowdown float64       // geometric mean of makespan / DRAM-only makespan

	// serve-http only: the daemon, its loopback listener and client, and
	// each op's encoded request body.
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	bodies [][]byte
}

// errMismatch marks an op whose simulated result differs from the
// verification pass.
var errMismatch = errors.New("simulated result differs from the verification pass")

// setup builds a workload's suite from scratch: graph builds,
// calibration of every machine, the verification pass, and for
// serve-http the daemon and a checked warm pass through HTTP.
func setup(workload string, ops []opSpec, tr *tracer) (*suite, error) {
	s := &suite{workload: workload, ops: ops}
	byApp := map[string]*task.Graph{}
	for i := range ops {
		o := &ops[i]
		key := fmt.Sprintf("%s/%d", o.App, o.Scale)
		g := byApp[key]
		if g == nil || o.Graph != nil {
			sp := tr.begin("workloads.build", i)
			var err error
			if g, err = buildGraph(o); err != nil {
				return nil, err
			}
			tr.end(sp, len(g.Tasks))
			if o.Graph == nil {
				byApp[key] = g
			}
		}
		s.graphs = append(s.graphs, g)
	}

	factors := map[string]calib.Factors{}
	cal := func(h mem.HMS, nvm string) (float64, float64, error) {
		f, ok := factors[nvm]
		if !ok {
			sp := tr.begin("calib.calibrate", -1)
			var err error
			if f, err = calib.Calibrate(calib.Envelope(h), prof.DefaultConfig()); err != nil {
				return 0, 0, err
			}
			tr.end(sp, 1)
			factors[nvm] = f
		}
		return f.CFBw, f.CFLat, nil
	}
	for i := range ops {
		cfg, err := config(&ops[i], ops[i].Machine, cal)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		s.cfgs = append(s.cfgs, cfg)
		if ops[i].Counter != nil {
			if cfg, err = config(&ops[i], *ops[i].Counter, cal); err != nil {
				return nil, fmt.Errorf("op %d counterfactual: %w", i, err)
			}
		}
		s.cfCfgs = append(s.cfCfgs, cfg)
	}

	if err := s.verify(); err != nil {
		return nil, err
	}
	if workload == "serve-http" {
		if err := s.startServer(); err != nil {
			return nil, err
		}
		for i := range ops {
			if err := s.runOp(i, tr); err != nil {
				s.close()
				return nil, fmt.Errorf("warm pass, op %d: %w", i, err)
			}
		}
	}
	return s, nil
}

// verify runs every op once in-process and records its outcome, plus
// each graph's DRAM-only makespan for the slowdown.
func (s *suite) verify() error {
	dramOnly := map[*task.Graph]float64{}
	logSum := 0.0
	for i := range s.ops {
		res, ref, err := s.reference(i)
		if err != nil {
			return fmt.Errorf("verification pass, op %d (%s/%s): %w", i, s.ops[i].App, s.ops[i].Policy, err)
		}
		s.refs = append(s.refs, ref)
		s.results = append(s.results, res)
		g := s.graphs[i]
		base, ok := dramOnly[g]
		if !ok {
			cfg := core.DefaultConfig(mem.DRAMOnly())
			cfg.Policy = core.DRAMOnly
			r, err := core.Run(g, cfg)
			if err != nil {
				return fmt.Errorf("DRAM-only run of %s: %w", g.Name, err)
			}
			base = r.Time
			dramOnly[g] = base
		}
		logSum += math.Log(res.Time / base)
	}
	s.slowdown = math.Exp(logSum / float64(len(s.ops)))
	return nil
}

// reference computes op i's outcome in-process.
func (s *suite) reference(i int) (core.Result, outcome, error) {
	switch s.workload {
	case "record-replay":
		return s.recordReplay(i, nil)
	case "serve-http":
		cfg := s.cfgs[i]
		var tr trace.Trace
		if s.ops[i].Trace {
			cfg.Trace = &tr
		}
		res, err := core.Run(s.graphs[i], cfg)
		if err != nil {
			return res, outcome{}, err
		}
		out := outcome{Bits: math.Float64bits(res.Time)}
		if s.ops[i].Trace {
			h := sha256.New()
			if err := tr.WriteJSONL(h); err != nil {
				return res, outcome{}, err
			}
			out.Events, out.TraceID = tr.Len(), hex.EncodeToString(h.Sum(nil))
		}
		return res, out, nil
	}
	res, err := core.Run(s.graphs[i], s.cfgs[i])
	return res, outcome{Bits: math.Float64bits(res.Time)}, err
}

// runOp runs op i as the timed loop does and checks it against the
// verification pass.
func (s *suite) runOp(i int, tr *tracer) error {
	var out outcome
	switch s.workload {
	case "record-replay":
		var err error
		if _, out, err = s.recordReplay(i, tr); err != nil {
			return err
		}
	case "serve-http":
		var err error
		if out, err = s.post(i, tr); err != nil {
			return err
		}
	default:
		sp := tr.begin("core.run", i)
		res, err := core.Run(s.graphs[i], s.cfgs[i])
		if err != nil {
			return err
		}
		tr.end(sp, res.Tasks)
		out.Bits = math.Float64bits(res.Time)
	}
	if out != s.refs[i] {
		return errMismatch
	}
	return nil
}

// recordReplay records op i, saves and reloads the recording, replays it
// under the same configuration (which must reproduce the recorded
// makespan bit for bit) and under the counterfactual machine.
func (s *suite) recordReplay(i int, tr *tracer) (core.Result, outcome, error) {
	g, cfg := s.graphs[i], s.cfgs[i]
	sp := tr.begin("replay.record", i)
	res, rec, err := replay.Record(g, cfg)
	if err != nil {
		return res, outcome{}, err
	}
	tr.end(sp, rec.Trace.Len())
	tr.value("trace.events", float64(rec.Trace.Len()))

	var saved bytes.Buffer
	sp = tr.begin("replay.save", i)
	if err := rec.Save(&saved); err != nil {
		return res, outcome{}, err
	}
	tr.end(sp, saved.Len())
	tr.value("trace.jsonl_kb", float64(saved.Len())/1024)

	sp = tr.begin("replay.load", i)
	loaded, err := replay.Load(bytes.NewReader(saved.Bytes()))
	if err != nil {
		return res, outcome{}, err
	}
	tr.end(sp, saved.Len())
	h := sha256.New()
	if err := loaded.Save(h); err != nil {
		return res, outcome{}, err
	}
	var out outcome
	h.Sum(out.Digest[:0])

	sp = tr.begin("replay.replay", i)
	same, err := replay.Replay(g, cfg, loaded)
	if err != nil {
		return res, outcome{}, err
	}
	tr.end(sp, same.Tasks)
	if same.Time != res.Time {
		return res, outcome{}, fmt.Errorf("same-config replay makespan %v, recorded %v", same.Time, res.Time)
	}
	out.Bits = math.Float64bits(same.Time)

	cfCfg := s.cfCfgs[i]
	cfCfg.Faults = nil // the replay rebuilds the recorded schedule
	sp = tr.begin("replay.counterfactual", i)
	cf, err := replay.Replay(g, cfCfg, loaded)
	if err != nil {
		return res, outcome{}, err
	}
	tr.end(sp, cf.Tasks)
	out.CFBits = math.Float64bits(cf.Time)
	return res, out, nil
}

// startServer boots the daemon with its default workers and its own
// calibration cache behind a loopback HTTP listener, and encodes every
// op's request once.
func (s *suite) startServer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = serve.New(serve.Config{Calib: &calib.Cache{}})
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String() + "/v1/run"
	s.client = &http.Client{Transport: &http.Transport{DisableCompression: true}}
	for i := range s.ops {
		req := s.ops[i].request("bench")
		b, err := json.Marshal(&req)
		if err != nil {
			s.close()
			return err
		}
		s.bodies = append(s.bodies, b)
	}
	return nil
}

// post sends op i through HTTP and reduces the response to its outcome.
func (s *suite) post(i int, tr *tracer) (outcome, error) {
	body := s.bodies[i]
	start := time.Now()
	sp := tr.begin("serve.http", i)
	hr, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		return outcome{}, err
	}
	tr.end(sp, len(raw))
	lat := time.Since(start).Seconds() * 1e3
	if hr.StatusCode != http.StatusOK {
		return outcome{}, fmt.Errorf("HTTP %d: %s", hr.StatusCode, bytes.TrimSpace(raw))
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return outcome{}, err
	}
	if resp.Error != "" {
		return outcome{}, errors.New(resp.Error)
	}
	if resp.Degraded {
		return outcome{}, errors.New("run served degraded")
	}
	tr.value("serve.http_ms", lat-resp.WaitMS-resp.RunMS)
	tr.value("serve.wait_ms", resp.WaitMS)
	tr.value("serve.req_kb", float64(len(body))/1024)
	tr.value("serve.resp_kb", float64(len(raw))/1024)
	return outcome{Bits: math.Float64bits(resp.TimeSec), Events: resp.TraceEvents, TraceID: resp.TraceSHA256}, nil
}

// close stops the daemon and its listener, if any, and waits for both.
func (s *suite) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here still closes the listener
	<-s.served
	s.client.CloseIdleConnections()
	_ = s.srv.Close() // drains without deadline; every run is answered by now
	s.srv = nil
}

// refEvery is how often the timed loop runs the reference between ops;
// window is the stretch of the loop whose reference times scale the ops
// completed in it. A window with fewer than minRefs reference runs uses
// the whole loop's instead.
const (
	refEvery = 20 * time.Millisecond
	window   = time.Second
	minRefs  = 20
)

// opTime is one op of a timed loop, as measured.
type opTime struct {
	at    float64 // completion, wall seconds since the loop started
	ms    float64 // wall-clock latency
	cpuMS float64 // process CPU time over the op, its share of GC included
}

// run is what one timed loop measured.
type run struct {
	ops      []opTime
	refAt    []float64 // when each reference run ended, seconds since the start
	refMS    []float64 // its CPU time
	failed   int
	firstErr error
}

// loop runs the closed loop: one client takes the next op of the list,
// in order and wrapping around, until d has passed. Between ops it runs
// the reference every refEvery; that time is in no op.
func (s *suite) loop(d time.Duration, tr *tracer) run {
	var r run
	start := time.Now()
	deadline := start.Add(d)
	var lastRef time.Time
	for i := 0; ; i = (i + 1) % len(s.ops) {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if now.Sub(lastRef) >= refEvery {
			r.refMS = append(r.refMS, hostRef.measure())
			lastRef = time.Now()
			r.refAt = append(r.refAt, lastRef.Sub(start).Seconds())
		}
		c0, t0 := cpuClockMS(clockProcessCPUTime), time.Now()
		err := s.runOp(i, tr)
		t1, c1 := time.Now(), cpuClockMS(clockProcessCPUTime)
		r.ops = append(r.ops, opTime{t1.Sub(start).Seconds(), t1.Sub(t0).Seconds() * 1e3, c1 - c0})
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	return r
}

// scales returns, for each op of r, refNominalMS over the median
// reference time in the op's window: the factor that turns the op's CPU
// time into CPU time on the host in its usual state.
func (r *run) scales() []float64 {
	byWin := map[int][]float64{}
	for k, at := range r.refAt {
		w := int(at / window.Seconds())
		byWin[w] = append(byWin[w], r.refMS[k])
	}
	med := map[int]float64{}
	for w, v := range byWin {
		if len(v) >= minRefs {
			med[w] = median(v)
		}
	}
	all := median(r.refMS)
	out := make([]float64, len(r.ops))
	for k, o := range r.ops {
		m, ok := med[int(o.at/window.Seconds())]
		if !ok {
			m = all
		}
		out[k] = refNominalMS / m
	}
	return out
}

// meanCPUMS is the loop's mean op CPU time as measured.
func (r *run) meanCPUMS() float64 {
	t := 0.0
	for _, o := range r.ops {
		t += o.cpuMS
	}
	return t / float64(len(r.ops))
}
