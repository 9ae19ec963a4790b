// Package serve wraps the runtime as a long-running, multi-tenant
// placement service: an HTTP/JSON daemon that accepts simulated-run
// requests (workload name or inline task graph, policy, machine/tier
// spec, optional fault spec), executes them on a bounded worker pool,
// and streams results back. It is the "millions of users" direction of
// the ROADMAP: throughput (runs/sec) joins per-run speed as a
// first-class metric.
//
// Scaling discipline:
//
//   - Per-tenant state is sharded: each tenant hashes to a shard owning
//     a free list of pooled run contexts (reused trace arenas, hashers,
//     completion channels), so two tenants never contend on a lock on
//     the hot path. The planner/heap state of a run is private to the
//     run by construction; the one shared, synchronized exception is
//     the singleflight calibration cache (calib.Shared), so a thousand
//     concurrent tenants asking for the same machine spec pay for
//     calibration once.
//   - Admission control is a bounded queue: when it overflows, the
//     HTTP layer sheds load with 429 + Retry-After (estimated from the
//     observed run-time EWMA and the backlog) instead of queueing
//     unboundedly.
//   - Overload degrades gracefully, reusing the fault package's
//     degradation machinery: a fault.Hysteresis controller watches
//     queue occupancy and, between its watermarks, the server enters a
//     degraded mode — workload scales are capped and trace recording
//     is shed — marking every affected response, the service-level
//     analogue of a Degrade window in a fault schedule.
//   - Shutdown drains: once draining, new work is refused (503) but
//     every accepted run completes and is delivered.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calib"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Config tunes a Server.
type Config struct {
	// Workers bounds the pool executing simulated runs (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (0 = 4x Workers).
	QueueDepth int
	// ShedHigh and ShedLow are the degraded-mode queue-occupancy
	// watermarks in [0,1] (0 = defaults 0.75/0.25). The mode engages at
	// ShedHigh and releases at ShedLow (fault.Hysteresis).
	ShedHigh, ShedLow float64
	// DegradedScaleCap caps request scales while degraded (0 = 6).
	DegradedScaleCap int
	// Calib is the calibration cache to share (nil = calib.Shared).
	Calib *calib.Cache
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.ShedHigh <= 0 {
		c.ShedHigh = 0.75
	}
	if c.ShedLow <= 0 {
		c.ShedLow = c.ShedHigh / 3
	}
	if c.DegradedScaleCap <= 0 {
		c.DegradedScaleCap = 6
	}
	if c.Calib == nil {
		c.Calib = calib.Shared
	}
	return c
}

// Admission errors.
var (
	// ErrOverloaded reports a full admission queue; the HTTP layer maps
	// it to 429 + Retry-After.
	ErrOverloaded = errors.New("serve: admission queue full")
	// ErrDraining reports a draining server; the HTTP layer maps it to
	// 503.
	ErrDraining = errors.New("serve: draining")
)

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Shed      uint64 `json:"shed"`
	Degraded  uint64 `json:"degraded_runs"`
	// DegradedEngaged counts the times the overload controller engaged
	// degraded mode (hysteresis on-transitions), distinguishing one long
	// overload episode from many short ones.
	DegradedEngaged uint64 `json:"degraded_engaged"`
	// FaultEvents/Quarantines/Readmits aggregate the fault-injection
	// activity of completed runs — the service-level view of how much
	// scripted degradation its tenants have asked for and how often tiers
	// cycled through quarantine.
	FaultEvents uint64  `json:"fault_events"`
	Quarantines uint64  `json:"quarantines"`
	Readmits    uint64  `json:"readmits"`
	QueueLen    int     `json:"queue_len"`
	QueueCap    int     `json:"queue_cap"`
	MaxQueue    int     `json:"max_queue_len"`
	Workers     int     `json:"workers"`
	Draining    bool    `json:"draining"`
	InDegraded  bool    `json:"degraded"`
	AvgRunMS    float64 `json:"avg_run_ms"`
}

// shardCount is the tenant-shard fan-out; a power of two so the hash
// maps with a mask. 64 shards keep even a thousand tenants' pools
// nearly contention-free.
const shardCount = 64

// shard owns one slice of the tenant space: a free list of pooled run
// contexts. Only the shard's own tenants touch its lock, so tenants in
// different shards never serialize against each other.
type shard struct {
	mu   sync.Mutex
	free []*job
	_    [40]byte // keep neighboring shards off one cache line
}

// job is a pooled run context: one admitted request, its response, and
// the reusable scratch (trace arena, hasher, completion channel) that
// makes steady-state request handling allocation-free beyond the run
// itself.
type job struct {
	req  RunRequest
	resp RunResponse

	// Resolved at admission (cheap validation, fails fast with 400).
	pol      core.Policy
	sched    core.Scheduler
	hms      mem.HMS
	fsched   *fault.Schedule
	fb       feedback.Config
	wl       workloads.Spec
	inline   *GraphSpec
	degraded bool

	admitted time.Time
	done     chan struct{} // cap 1; signaled once per execution
	tr       trace.Trace
	hasher   hash.Hash
	home     *shard
}

// Server is the placement service. Build with New; it is ready (and its
// worker pool running) on return.
type Server struct {
	cfg    Config
	queue  chan *job
	shards [shardCount]shard
	shed   *fault.Hysteresis

	admitMu  sync.Mutex
	draining bool
	inflight int
	drained  chan struct{}
	drainOne sync.Once

	workersWG sync.WaitGroup
	closeOnce sync.Once

	nextID      atomic.Uint64
	accepted    atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	shedCount   atomic.Uint64
	degRuns     atomic.Uint64
	faultEvents atomic.Uint64
	quarantines atomic.Uint64
	readmits    atomic.Uint64
	maxQueue    atomic.Int64
	avgRunNS    atomic.Uint64 // EWMA of run wall time, float64 bits
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueDepth),
		shed:    fault.NewHysteresis(cfg.ShedHigh, cfg.ShedLow),
		drained: make(chan struct{}),
	}
	s.workersWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// fnv1a hashes a tenant name without allocating.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardFor maps a tenant to its shard.
func (s *Server) shardFor(tenant string) *shard {
	return &s.shards[fnv1a(tenant)&(shardCount-1)]
}

// getJob pops a pooled run context from the tenant's shard (or builds
// the shard's first few).
func (s *Server) getJob(tenant string) *job {
	sh := s.shardFor(tenant)
	sh.mu.Lock()
	var j *job
	if n := len(sh.free); n > 0 {
		j, sh.free = sh.free[n-1], sh.free[:n-1]
	}
	sh.mu.Unlock()
	if j == nil {
		j = &job{done: make(chan struct{}, 1), hasher: sha256.New(), home: sh}
	}
	j.req = RunRequest{}
	j.resp = RunResponse{}
	j.inline = nil
	j.fsched = nil
	j.fb = feedback.Config{}
	j.degraded = false
	return j
}

// putJob returns a run context to its shard's pool.
func (s *Server) putJob(j *job) {
	sh := j.home
	sh.mu.Lock()
	sh.free = append(sh.free, j)
	sh.mu.Unlock()
}

// resolve validates the request and pins its cheap-to-parse parts onto
// the job, so invalid requests fail fast (HTTP 400) without consuming
// the worker pool.
func (s *Server) resolve(j *job) error {
	req := &j.req
	var err error
	pol := req.Policy
	if pol == "" {
		pol = "tahoe"
	}
	if j.pol, err = core.PolicyByName(pol); err != nil {
		return err
	}
	sched := req.Scheduler
	if sched == "" {
		sched = "worksteal"
	}
	if j.sched, err = core.SchedulerByName(sched); err != nil {
		return err
	}
	if j.hms, err = req.Machine.Build(); err != nil {
		return err
	}
	if j.fsched, err = fault.ParseSpec(req.Faults); err != nil {
		return err
	}
	if err := j.fsched.Validate(j.hms.NumTiers()); err != nil {
		return err
	}
	if j.fb, err = cliutil.ParseFeedback(req.Feedback, feedback.Config{}); err != nil {
		return err
	}
	if req.Workers < 0 || req.Scale < 0 || req.Lookahead < 0 {
		return fmt.Errorf("serve: negative workers/scale/lookahead")
	}
	if req.Workers > core.MaxWorkers {
		return fmt.Errorf("serve: %d workers, above the cap of %d", req.Workers, core.MaxWorkers)
	}
	switch {
	case req.Graph != nil:
		if req.Workload != "" {
			return fmt.Errorf("serve: request has both a workload name and an inline graph")
		}
		if err := req.Graph.validate(); err != nil {
			return err
		}
		j.inline = req.Graph
	default:
		name := req.Workload
		if name == "" {
			return fmt.Errorf("serve: request needs a workload name or an inline graph")
		}
		if j.wl, err = workloads.ByName(name); err != nil {
			return err
		}
		if err := j.wl.CheckScale(req.Scale); err != nil {
			return err
		}
	}
	return nil
}

// admit places a resolved job on the queue. Non-blocking admission
// (block=false, the HTTP single-run path) sheds with ErrOverloaded when
// the queue is full; blocking admission (batch streaming and Do)
// applies backpressure instead. Both refuse new work while draining.
func (s *Server) admit(j *job, block bool) error {
	s.admitMu.Lock()
	if s.draining {
		s.admitMu.Unlock()
		return ErrDraining
	}
	s.inflight++
	s.admitMu.Unlock()

	// Feed the overload controller before enqueueing, so sustained
	// pressure trips degraded mode before the queue hard-overflows.
	j.degraded = s.shed.Observe(float64(len(s.queue)) / float64(cap(s.queue)))
	j.admitted = time.Now()
	// The job belongs to a worker the instant it is enqueued; no writes
	// to it after the send.
	j.resp.ID = s.nextID.Add(1)

	if block {
		s.queue <- j
	} else {
		select {
		case s.queue <- j:
		default:
			s.shed.Observe(1)
			s.shedCount.Add(1)
			s.finish()
			return ErrOverloaded
		}
	}
	for {
		q := int64(len(s.queue))
		cur := s.maxQueue.Load()
		if q <= cur || s.maxQueue.CompareAndSwap(cur, q) {
			break
		}
	}
	s.accepted.Add(1)
	return nil
}

// finish retires one admitted (or admission-rolled-back) run.
func (s *Server) finish() {
	s.admitMu.Lock()
	s.inflight--
	if s.draining && s.inflight == 0 {
		s.drainOne.Do(func() { close(s.drained) })
	}
	s.admitMu.Unlock()
}

// worker executes queued runs until the queue closes.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for j := range s.queue {
		s.execute(j)
		s.finish()
		j.done <- struct{}{}
	}
}

// observeRun folds one run's wall time into the EWMA behind Retry-After.
func (s *Server) observeRun(wall time.Duration) {
	for {
		old := s.avgRunNS.Load()
		avg := math.Float64frombits(old)
		if avg == 0 {
			avg = float64(wall.Nanoseconds())
		} else {
			avg = 0.9*avg + 0.1*float64(wall.Nanoseconds())
		}
		if s.avgRunNS.CompareAndSwap(old, math.Float64bits(avg)) {
			return
		}
	}
}

// RetryAfterSec estimates how long a shed client should wait before
// retrying: the backlog divided across the pool at the observed mean
// run time, floored at one second.
func (s *Server) RetryAfterSec() int {
	avg := math.Float64frombits(s.avgRunNS.Load())
	backlog := float64(len(s.queue) + 1)
	sec := int(math.Ceil(avg * backlog / float64(s.cfg.Workers) / 1e9))
	if sec < 1 {
		sec = 1
	}
	return sec
}

// execute runs one admitted job to completion, filling its response.
func (s *Server) execute(j *job) {
	start := time.Now()
	req := &j.req
	resp := &j.resp
	resp.Tenant = req.Tenant
	resp.WaitMS = start.Sub(j.admitted).Seconds() * 1e3

	cfg := core.DefaultConfig(j.hms)
	cfg.Policy = j.pol
	cfg.Scheduler = j.sched
	cfg.Faults = j.fsched
	cfg.Feedback = j.fb
	if req.Workers > 0 {
		cfg.Workers = req.Workers
	}
	if req.Lookahead > 0 {
		cfg.Lookahead = req.Lookahead
	}
	if !req.NoCalibrate {
		f := s.cfg.Calib.Factors(j.hms, prof.DefaultConfig())
		cfg.CFBw, cfg.CFLat = f.CFBw, f.CFLat
	}

	// Degraded mode: cap the instance size and shed trace recording —
	// cheaper, still-indicative answers instead of refusals, the
	// service-level Degrade window.
	scale := req.Scale
	wantTrace := req.Trace
	if j.degraded {
		if scale == 0 || scale > s.cfg.DegradedScaleCap {
			scale = s.cfg.DegradedScaleCap
		}
		wantTrace = false
		resp.Degraded = true
		s.degRuns.Add(1)
	}

	var g *task.Graph
	if j.inline != nil {
		g = j.inline.build()
		resp.Workload = g.Name
	} else {
		g = j.wl.Build(workloads.Params{Scale: scale}).Graph
		resp.Workload = j.wl.Name
	}
	if wantTrace {
		j.tr.Reset()
		cfg.Trace = &j.tr
	}

	res, err := core.Run(g, cfg)
	wall := time.Since(start)
	s.observeRun(wall)
	resp.RunMS = wall.Seconds() * 1e3
	if err != nil {
		resp.Error = err.Error()
		s.failed.Add(1)
		return
	}
	resp.Policy = res.Policy
	resp.Machine = req.Machine.String()
	resp.TimeSec = res.Time
	resp.Tasks = res.Tasks
	resp.Migrations = res.Migration.Migrations
	resp.BytesMoved = res.Migration.BytesMoved
	resp.Replans = res.Replans
	resp.PlanKind = res.PlanKind
	resp.EnergyJ = res.EnergyJ
	resp.FaultEvents = res.FaultEvents
	resp.Quarantines = res.Quarantines
	resp.Readmits = res.Readmits
	s.faultEvents.Add(uint64(res.FaultEvents))
	s.quarantines.Add(uint64(res.Quarantines))
	s.readmits.Add(uint64(res.Readmits))
	resp.FeedbackCorrections = res.FeedbackCorrections
	resp.FeedbackReplans = res.FeedbackReplans
	if wantTrace {
		resp.TraceEvents = j.tr.Len()
		j.hasher.Reset()
		if err := j.tr.WriteJSONL(j.hasher); err == nil {
			resp.TraceSHA256 = hex.EncodeToString(j.hasher.Sum(nil))
		}
	}
	s.completed.Add(1)
}

// Do executes one request through the full admission + pool path
// in-process (the benchmark's and client tests' entry): blocking
// admission, pooled run context, response copied out.
func (s *Server) Do(req *RunRequest) (RunResponse, error) {
	j := s.getJob(req.Tenant)
	j.req = *req
	if err := s.resolve(j); err != nil {
		s.putJob(j)
		return RunResponse{}, err
	}
	if err := s.admit(j, true); err != nil {
		s.putJob(j)
		return RunResponse{}, err
	}
	<-j.done
	resp := j.resp
	s.putJob(j)
	return resp, nil
}

// Snapshot returns the current counters.
func (s *Server) Snapshot() Stats {
	s.admitMu.Lock()
	draining := s.draining
	s.admitMu.Unlock()
	return Stats{
		Accepted:  s.accepted.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Shed:      s.shedCount.Load(),
		Degraded:  s.degRuns.Load(),
		// Epoch advances on every transition; on-transitions are the odd
		// ones, so engagements = ceil(epoch/2).
		DegradedEngaged: (s.shed.Epoch() + 1) / 2,
		FaultEvents:     s.faultEvents.Load(),
		Quarantines:     s.quarantines.Load(),
		Readmits:        s.readmits.Load(),
		QueueLen:        len(s.queue),
		QueueCap:        cap(s.queue),
		MaxQueue:        int(s.maxQueue.Load()),
		Workers:         s.cfg.Workers,
		Draining:        draining,
		InDegraded:      s.shed.Active(),
		AvgRunMS:        math.Float64frombits(s.avgRunNS.Load()) / 1e6,
	}
}

// Drain stops admitting new runs and waits until every accepted run
// has completed (or ctx expires). It is idempotent; the HTTP layer
// rejects requests with 503 while draining.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining = true
	idle := s.inflight == 0
	if idle {
		s.drainOne.Do(func() { close(s.drained) })
	}
	s.admitMu.Unlock()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains (without deadline) and stops the worker pool. The server
// must not be used afterwards.
func (s *Server) Close() error {
	err := s.Drain(context.Background())
	s.closeOnce.Do(func() {
		close(s.queue)
		s.workersWG.Wait()
	})
	return err
}
