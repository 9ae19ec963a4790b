// Command perfbench is the repository's benchmark: one closed-loop
// workload per run, every op's simulated result checked against a
// verification pass, every metric printed by name and unit, and a final
// JSON line with the result. See README.md for the workloads, the
// metrics and why they were chosen.
//
//	go run . --workload managed --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"managed", "unmanaged", "serve-http", "record-replay"}

// setupReps is how many times an untraced run repeats its whole set-up;
// setup_s is their median. setupRefs reference runs before and after
// each set-up scale it.
const (
	setupReps = 7
	setupRefs = 20
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "managed", "workload: managed, unmanaged, serve-http or record-replay")
	seed := flag.Int64("seed", 1, "workload seed; the op list is a pure function of it")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spans := flag.String("spans", "", "traced runs write their spans here as JSONL")
	flag.Parse()
	// One P: the workload's goroutines and the GC's share one core, so the
	// process CPU clock read around an op counts exactly that op's work.
	runtime.GOMAXPROCS(1)

	ops, err := makeOps(*workload, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench: workload=%s seed=%d ops=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		*workload, *seed, len(ops), *seconds, *traceOn, runtime.GOMAXPROCS(0))
	var res result
	if *traceOn == 1 {
		res, err = runTraced(*workload, ops, *seconds, *spans)
	} else {
		res, err = runMeasured(*workload, ops, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runMeasured is the untraced run behind the end-to-end metrics. Its
// host figures are process CPU times, scaled to the host's usual state by the
// reference measured beside them: each op by the reference runs in its
// window of the loop, each set-up by those just before and after it.
func runMeasured(workload string, ops []opSpec, seconds float64) (result, error) {
	var (
		st                       *suite
		setupSec, setupWall, cpu []float64
		diverged                 bool
	)
	for k := 0; k < setupReps; k++ {
		refs := hostRef.sample(nil, setupRefs)
		t0, c0 := time.Now(), cpuClockMS(clockProcessCPUTime)
		s, err := setup(workload, ops, nil)
		if err != nil {
			return result{}, err
		}
		c1, wall := cpuClockMS(clockProcessCPUTime), time.Since(t0).Seconds()
		refs = hostRef.sample(refs, setupRefs)
		cpu, setupWall = append(cpu, (c1-c0)/1e3), append(setupWall, wall)
		setupSec = append(setupSec, (c1-c0)/1e3*refNominalMS/median(refs))
		if st != nil {
			diverged = diverged || !sameRefs(st, s)
			st.close()
		}
		st = s
	}
	defer st.close()
	if diverged {
		fmt.Fprintln(os.Stderr, "perfbench: set-up repetitions disagree on the verification pass")
	}

	runtime.GC()
	m, attempted, failed := timedLoop(st, seconds)
	m["setup_s"] = metric{median(setupSec), "s"}
	m["live_heap_mb"] = metric{liveHeapMB(), "MB"} // the loop's own records are garbage by now
	m["sim_slowdown"] = metric{st.slowdown, "x"}
	fmt.Printf("perfbench: set-up medians: unscaled CPU %.4f s, wall %.4f s\n", median(cpu), median(setupWall))
	printMetrics(m)
	return result{Correct: failed == 0 && !diverged, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// timedLoop runs the timed loop and returns its scaled CPU-time and
// allocation metrics, and how many ops it attempted and how many failed.
func timedLoop(st *suite, seconds float64) (map[string]metric, int, int) {
	before := sample()
	r := st.loop(secs(seconds), nil)
	after := sample()
	if r.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", r.firstErr)
	}
	scale := r.scales()
	cpu := make([]float64, len(r.ops))
	cpuRaw := make([]float64, len(r.ops))
	wall := make([]float64, len(r.ops))
	sum := 0.0
	for k, o := range r.ops {
		cpuRaw[k], cpu[k], wall[k] = o.cpuMS, o.cpuMS*scale[k], o.ms
		sum += cpu[k]
	}
	n := float64(len(r.ops))
	sort.Float64s(cpu)
	fmt.Printf("perfbench: %d ops attempted, %d succeeded, %d failed; op CPU times over %d samples, %d beyond op_cpu_ms_p99\n",
		len(r.ops), len(r.ops)-r.failed, r.failed, len(cpu), len(cpu)/100)
	fmt.Printf("perfbench: reference median %.4f ms CPU over %d runs (nominal %g ms); unscaled op medians: CPU %.4f ms, wall %.4f ms\n",
		median(r.refMS), len(r.refMS), refNominalMS, median(cpuRaw), median(wall))
	return map[string]metric{
		"ops_per_cpu_s":   {n / (sum / 1e3), "1/s"},
		"op_cpu_ms_p50":   {quantile(cpu, 0.5), "ms"},
		"op_cpu_ms_p99":   {quantile(cpu, 0.99), "ms"},
		"alloc_mb_per_op": {float64(after.alloc-before.alloc) / n / (1 << 20), "MB"},
	}, len(r.ops), r.failed
}

// sameRefs reports whether two set-ups' verification passes agree bit
// for bit.
func sameRefs(a, b *suite) bool {
	if len(a.refs) != len(b.refs) || a.slowdown != b.slowdown {
		return false
	}
	for i := range a.refs {
		if a.refs[i] != b.refs[i] {
			return false
		}
	}
	return true
}

// usage is a snapshot of the process's clocks and counters.
type usage struct {
	wall     time.Time
	alloc    uint64 // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
}

func sample() usage {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return usage{
		wall:     time.Now(),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		allCPU:   s[3].Value.Float64(),
	}
}

// liveHeapMB runs a full GC and returns the heap still reachable: the
// graphs, configurations and daemon state the workload keeps between ops.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// quantile interpolates linearly in a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantileOf is quantile over an unsorted sample, which it leaves as is.
func quantileOf(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(v []float64) float64 { return quantileOf(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
