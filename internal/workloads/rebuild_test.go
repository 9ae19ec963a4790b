package workloads

import (
	"testing"

	"repro/internal/task"
)

// benchScale is each app's scale in perfbench's op lists; nqueens is in
// none.
var benchScale = map[string]int{
	"bfs": 5, "cg": 6, "cholesky": 6, "fft": 20, "heat": 6, "kmeans": 4, "lu": 6,
	"pagerank": 4, "qr": 5, "sort": 20, "sparselu": 8, "strassen": 1, "wave": 6,
}

// warmExtra is what an app's warm rebuild at scale s may allocate beyond
// one allocation per object (its name; a literal name allocates nothing,
// which leaves slack): the graph header, the app's per-build index
// tables, and the locals and closures its kernels share, which live on
// the heap even when a build attaches no kernels.
var warmExtra = map[string]func(s int) int{
	"bfs":      func(int) int { return 1 },
	"cg":       func(int) int { return 7 },
	"cholesky": func(s int) int { return s + 4 }, // s+1 tile-ID tables
	"fft":      func(int) int { return 1 },
	"heat":     func(int) int { return 4 },
	"kmeans":   func(int) int { return 2 },
	"lu":       func(s int) int { return 2*s + 5 }, // s+1 fill-pattern and s+1 tile-ID tables
	"nqueens":  func(int) int { return 4 },
	"pagerank": func(int) int { return 1 },
	"qr":       func(int) int { return 10 }, // the R-block ID map
	"sort":     func(int) int { return 2 },
	"sparselu": func(s int) int { return 2*s + 5 },
	// Every quadrant view and temporary of the recursion is a block grid
	// with its own ID table.
	"strassen": func(s int) int {
		if s == 1 {
			return 66
		}
		return 560
	},
	"wave": func(int) int { return 2 },
}

// TestWarmRebuildAllocs: an app rebuilt in a Builder that already built
// it allocates only its object names and per-build tables, at scales 1
// to 3 and at its perfbench scale. Task, object, access and dependence
// storage all come from the Builder.
func TestWarmRebuildAllocs(t *testing.T) {
	var b task.Builder
	for _, s := range Apps() {
		extra, ok := warmExtra[s.Name]
		if !ok {
			t.Fatalf("%s has no warm-rebuild allowance", s.Name)
		}
		scales := []int{1, 2, 3}
		if sc, ok := benchScale[s.Name]; ok {
			scales = append(scales, sc)
		}
		for _, sc := range scales {
			p := Params{Scale: sc, Into: &b}
			g := s.Build(p).Graph
			want := len(g.Objects) + extra(sc)
			if got := testing.AllocsPerRun(3, func() { s.Build(p) }); got > float64(want) {
				t.Errorf("%s at scale %d: warm rebuild allocates %.0f, want at most %d (%d objects)",
					s.Name, sc, got, want, len(g.Objects))
			}
		}
	}
}
