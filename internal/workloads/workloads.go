// Package workloads provides the task-parallel benchmark programs the
// experiments run: dense tiled factorizations (Cholesky, LU), an
// irregular sparse factorization (SparseLU), an iterative stencil (heat),
// an FFT, a parallel mergesort, a conjugate-gradient solver, a
// compute-bound control (N-Queens), and the two calibration
// microbenchmarks (STREAM and pointer chase).
//
// Every workload builds a task graph with two independent facets:
//
//   - an analytic performance facet: per-task main-memory load/store
//     counts and memory-level parallelism, derived from documented traffic
//     models, which the simulation substrate charges; and
//   - an optional correctness facet: real Go kernels over real buffers
//     (enabled by Params.Kernels), which tests and examples execute on the
//     work-stealing pool and verify numerically.
//
// Problem sizes scale with Params.Scale so that experiments can size
// memory footprints against DRAM capacity without allocating real
// buffers.
package workloads

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/task"
)

// FlopRate is the modeled per-worker compute throughput used to convert
// flop counts into CPU seconds (a vectorized core's sustained rate).
const FlopRate = 50e9

// CacheBlock is the modeled cache-blocking factor of the dense kernels:
// a b×b×b kernel re-reads its streamed operand b/CacheBlock times.
const CacheBlock = 64

// Params selects the problem instance.
type Params struct {
	// Scale is the workload's size knob; each workload documents its
	// meaning. Scale <= 0 selects the workload default.
	Scale int
	// Kernels attaches real Go kernels and allocates real buffers.
	Kernels bool
	// Into, when set, is the Builder the graph is built in. Building
	// resets it, so the graph it built before becomes invalid. Nil
	// builds in a fresh Builder.
	Into *task.Builder
}

// builder returns p.Into reset for a graph of the given name, or a
// fresh Builder.
func (p Params) builder(name string) *task.Builder {
	if p.Into == nil {
		return task.NewBuilder(name)
	}
	return p.Into.Reset(name)
}

// tileDim resolves the effective tile dimension: large tiles for
// simulation-only runs, small tiles when Kernels is set so real buffers
// stay cheap.
func (p Params) tileDim(simDefault, kernelDefault int) int {
	if p.Kernels {
		return kernelDefault
	}
	return simDefault
}

// Built is a constructed workload instance.
type Built struct {
	Graph *task.Graph
	// Check verifies numerical correctness after the kernels ran;
	// nil when Params.Kernels was false.
	Check func() error
}

// Spec describes one registered workload.
type Spec struct {
	Name        string
	Description string
	// Build constructs the instance.
	Build func(p Params) Built
	// App marks application workloads (shown in the main experiment
	// figures); calibration microbenchmarks are not apps.
	App bool
	// MaxScale is the largest Params.Scale the workload builds: the
	// largest whose graph has at most MaxTasks tasks and validates. 0
	// means any scale does (the graph stops growing). Callers that take
	// a scale from users check it with CheckScale first.
	MaxScale int
}

// MaxTasks bounds the task count of every workload's graph at its
// MaxScale, so a scale that passes CheckScale cannot ask for a graph
// larger than this before anything is built.
const MaxTasks = 1 << 18

// CheckScale reports an error when scale is negative or above the
// workload's MaxScale.
func (s Spec) CheckScale(scale int) error {
	if scale < 0 {
		return fmt.Errorf("workloads: %s scale %d is negative", s.Name, scale)
	}
	if s.MaxScale > 0 && scale > s.MaxScale {
		return fmt.Errorf("workloads: %s scale %d is above its maximum, %d", s.Name, scale, s.MaxScale)
	}
	return nil
}

// MaxKernelBytes bounds the object bytes of a workload whose real
// kernels run. Built without kernels, a recipe's graph is never smaller
// than with them (the dense recipes run their kernels on smaller tiles),
// and no recipe's kernels allocate more than 4/3 of that graph's object
// bytes, besides the graph itself: sort's two arrays are exactly them,
// and fft's data with the copy its check compares against is 4/3 of
// them. So Kernels allocates at most about 1.3 GiB.
const MaxKernelBytes = 1 << 30

// CheckKernels reports an error when the workload at scale, built
// without kernels, has more than MaxKernelBytes of objects. It allocates
// no kernel array, so callers that take a scale from users check it
// before building with Kernels set.
func (s Spec) CheckKernels(scale int) error {
	var total int64
	for _, o := range s.Build(Params{Scale: scale}).Graph.Objects {
		if o.Size > MaxKernelBytes-total {
			return fmt.Errorf("workloads: %s at scale %d has more object bytes than the %d (1 GiB) its kernels may allocate",
				s.Name, scale, MaxKernelBytes)
		}
		total += o.Size
	}
	return nil
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workloads: duplicate " + s.Name)
	}
	registry[s.Name] = s
}

// ByName looks a workload up.
func ByName(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return s, nil
}

// All returns every registered workload, sorted by name.
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Apps returns the application workloads, sorted by name.
func Apps() []Spec {
	var out []Spec
	for _, s := range All() {
		if s.App {
			out = append(out, s)
		}
	}
	return out
}

// lines converts a byte count into cache-line access counts.
func lines(bytes int64) int64 {
	n := bytes / 64
	if n < 1 && bytes > 0 {
		return 1
	}
	return n
}

// cpuSec converts a flop count into modeled CPU seconds.
func cpuSec(flops float64) float64 { return flops / FlopRate }

// indexed returns prefix followed by each index in brackets, as
// fmt.Sprintf("%s[%d]…") renders it: indexed("A", 1, 2) is "A[1][2]".
// Builders name their objects with it.
func indexed(prefix string, idx ...int) string {
	var a [48]byte
	b := append(a[:0], prefix...)
	for _, i := range idx {
		b = append(strconv.AppendInt(append(b, '['), int64(i), 10), ']')
	}
	return string(b)
}

// defScale returns scale, or def when scale is unset.
func defScale(scale, def int) int {
	if scale <= 0 {
		return def
	}
	return scale
}
