package main

import (
	"cmp"
	"runtime"
	"slices"
	"syscall"
	"unsafe"
)

// refNominalMS is the CPU time one refWork.run typically took on the
// host the benchmark was tuned on (a 2-vCPU Intel Xeon VM). CPU times are
// reported scaled by refNominalMS / the reference's CPU time measured
// beside them, that is, in milliseconds of that host in its usual state.
const refNominalMS = 0.2

// refWork is a fixed piece of pure Go work that never changes with the
// repository: a pointer chase through a 128 KiB permutation, a sort and
// a map fill. The timed loop runs it between ops. A shared host slows
// the whole process when other tenants load it, for seconds to minutes
// at a time; the reference slows with it, so CPU times divided by the
// reference's CPU time measured in the same second move with the
// program's own cost, not with the host's load. It allocates nothing
// after construction, so it neither feeds nor triggers the GC.
type refWork struct {
	chase []uint32
	items []refItem
	seed  []refItem
	m     map[uint32]uint32
	sink  uint32
}

// hostRef is the process's reference, built before anything is timed.
var hostRef = newRefWork()

type refItem struct {
	key uint32
	val uint32
}

func newRefWork() *refWork {
	const chaseLen = 1 << 15 // 128 KiB of uint32: the core's own caches
	w := &refWork{
		chase: make([]uint32, chaseLen),
		items: make([]refItem, 1024),
		seed:  make([]refItem, 1024),
		m:     make(map[uint32]uint32, 1024),
	}
	x := uint32(2463534242)
	next := func() uint32 { x ^= x << 13; x ^= x >> 17; x ^= x << 5; return x }
	// A single cycle through every slot (Sattolo's shuffle), so the chase
	// visits the whole array in an order the prefetcher cannot follow.
	for i := range w.chase {
		w.chase[i] = uint32(i)
	}
	for i := chaseLen - 1; i > 0; i-- {
		j := int(next() % uint32(i))
		w.chase[i], w.chase[j] = w.chase[j], w.chase[i]
	}
	for i := range w.seed {
		w.seed[i] = refItem{next(), next()}
	}
	return w
}

// run does the work once.
func (w *refWork) run() {
	p := uint32(0)
	for k := 0; k < len(w.chase)/2; k++ {
		p = w.chase[p]
	}
	copy(w.items, w.seed)
	slices.SortFunc(w.items, func(a, b refItem) int { return cmp.Compare(a.key, b.key) })
	clear(w.m)
	for _, it := range w.items {
		w.m[it.key%2048] += it.val
	}
	w.sink += p + w.m[p%2048]
}

// measure runs the reference once to bring its data back into the caches,
// so what an op left there does not move it, then three more times, and
// returns the mean CPU time of those three in milliseconds. It holds its
// thread meanwhile and reads that thread's CPU clock, so neither another
// goroutine, nor the GC, nor time the hypervisor gave to another tenant
// is in it.
func (w *refWork) measure() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w.run()
	t0 := cpuClockMS(clockThreadCPUTime)
	w.run()
	w.run()
	w.run()
	return (cpuClockMS(clockThreadCPUTime) - t0) / 3
}

// sample measures the reference n times and appends the times to ms.
func (w *refWork) sample(ms []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		ms = append(ms, w.measure())
	}
	return ms
}

// Linux CPU-time clocks (clock_gettime(2)).
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// cpuClockMS reads a CPU-time clock in milliseconds. These clocks count
// time the threads ran, to the nanosecond; time a hypervisor gave to
// another guest is not in them.
func cpuClockMS(clock uintptr) float64 {
	var ts syscall.Timespec
	// Cannot fail for these clock IDs with a valid pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e6
}
